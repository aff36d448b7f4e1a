//! Property-based tests for the simulator: engine-timeline invariants,
//! memory-tracker safety, and cost-model sanity under arbitrary workloads.

use proptest::prelude::*;
use texid_gpu::cost::{h2d_duration_us, kernel_duration_us};
use texid_gpu::{DeviceSpec, GpuSim, Kernel, Precision};

fn arb_kernel() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        (1usize..4096, 1usize..1024, 1usize..256, any::<bool>(), any::<bool>()).prop_map(
            |(m, n, k, f16, tc)| Kernel::Gemm {
                m_rows: m,
                n_cols: n,
                k_depth: k,
                precision: if f16 { Precision::F16 } else { Precision::F32 },
                tensor_core: tc,
            }
        ),
        (2usize..2048, 1usize..4096, any::<bool>()).prop_map(|(m, n, f16)| Kernel::Top2Scan {
            m_rows: m,
            n_cols: n,
            precision: if f16 { Precision::F16 } else { Precision::F32 },
        }),
        (2usize..2048, 1usize..2048).prop_map(|(m, n)| Kernel::FullColumnSort { m_rows: m, n_cols: n }),
        (1usize..2048, 1usize..2048).prop_map(|(m, n)| Kernel::AddNorms { m_rows: m, n_cols: n }),
        (1usize..8192).prop_map(|e| Kernel::EpilogueSqrt { elems: e }),
    ]
}

#[derive(Clone, Debug)]
enum Op {
    H2d(u32, bool),
    D2h(u32),
    Launch(Kernel),
    Host(u16),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..(1 << 24), any::<bool>()).prop_map(|(b, p)| Op::H2d(b, p)),
        (1u32..(1 << 24)).prop_map(Op::D2h),
        arb_kernel().prop_map(Op::Launch),
        (1u16..5000).prop_map(Op::Host),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_durations_positive_and_finite(k in arb_kernel()) {
        for spec in [DeviceSpec::tesla_p100(), DeviceSpec::tesla_v100()] {
            let d = kernel_duration_us(&spec, &k);
            prop_assert!(d.is_finite());
            prop_assert!(d >= spec.calib.launch_us, "{k:?}: {d}");
        }
    }

    #[test]
    fn kernel_durations_monotone_in_work(
        m in 2usize..512, n in 1usize..512, k in 1usize..128, factor in 2usize..4,
    ) {
        let spec = DeviceSpec::tesla_p100();
        let small = kernel_duration_us(&spec, &Kernel::Gemm {
            m_rows: m, n_cols: n, k_depth: k, precision: Precision::F32, tensor_core: false,
        });
        let big = kernel_duration_us(&spec, &Kernel::Gemm {
            m_rows: m * factor, n_cols: n, k_depth: k, precision: Precision::F32, tensor_core: false,
        });
        prop_assert!(big > small);
    }

    #[test]
    fn h2d_monotone_in_bytes(a in 1u64..(1 << 30), b in 1u64..(1 << 30)) {
        let spec = DeviceSpec::tesla_p100();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(h2d_duration_us(&spec, lo, true) <= h2d_duration_us(&spec, hi, true));
    }

    #[test]
    fn stream_ordering_and_time_monotonicity(
        ops in prop::collection::vec(arb_op(), 1..40),
        n_streams in 1usize..4,
    ) {
        let mut sim = GpuSim::new(DeviceSpec::tesla_p100());
        let streams: Vec<_> = (0..n_streams).map(|_| sim.create_stream()).collect();
        let mut last_end = vec![0.0f64; n_streams];
        for (i, op) in ops.iter().enumerate() {
            let lane = i % n_streams;
            let st = streams[lane];
            let rec = match op {
                Op::H2d(bytes, pinned) => sim.h2d(st, *bytes as u64, *pinned),
                Op::D2h(bytes) => sim.d2h(st, *bytes as u64),
                Op::Launch(k) => sim.launch(st, *k),
                Op::Host(us) => sim.host_work(st, *us as f64),
            };
            // Each op starts no earlier than the previous op on its stream.
            prop_assert!(rec.start_us >= last_end[lane] - 1e-9, "stream order violated");
            prop_assert!(rec.end_us >= rec.start_us);
            last_end[lane] = rec.end_us;
        }
        // Device sync covers every stream's completion.
        let sync = sim.device_sync();
        for &e in &last_end {
            prop_assert!(sync >= e - 1e-9);
        }
        // Engine busy time can never exceed the makespan.
        let (h2d, d2h, comp) = sim.engine_busy_us();
        for busy in [h2d, d2h, comp] {
            prop_assert!(busy <= sync + 1e-9, "engine busier than the clock: {busy} vs {sync}");
        }
    }
}
