//! Property-based tests (proptest) over the workspace's core invariants:
//! autodiff correctness, metric axioms, IPM/HSIC behaviour, dataset
//! generator guarantees and the name-addressable method grid.

use proptest::prelude::*;
use sbrl_hap::core::MethodSpec;
use sbrl_hap::metrics::{ate_bias, env_aggregate, f1_score, pehe};
use sbrl_hap::stats::{hsic_rff_pair, ipm_plain, ipm_weighted_plain, IpmKind, Rff};
use sbrl_hap::tensor::gradcheck::check_gradient;
use sbrl_hap::tensor::rng::rng_from_seed;
use sbrl_hap::tensor::Matrix;

fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f64..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn autodiff_matches_finite_differences_on_random_composites(x in matrix_strategy(4, 3)) {
        // softplus -> matmul with transpose -> sigmoid -> mean: a composite
        // touching several backward rules at once.
        check_gradient(
            &|g, a| {
                let s = g.softplus(a);
                let t = g.transpose(s);
                let m = g.matmul(s, t); // 4x4
                let h = g.sigmoid(m);
                g.mean(h)
            },
            &x,
            1e-5,
            1e-4,
        ).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn matmul_is_associative(a in matrix_strategy(3, 4), b in matrix_strategy(4, 2), c in matrix_strategy(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn matmul_distributes_over_addition(a in matrix_strategy(3, 4), b in matrix_strategy(4, 2), c in matrix_strategy(4, 2)) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn transpose_reverses_matmul(a in matrix_strategy(3, 4), b in matrix_strategy(4, 2)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn pehe_is_a_metric_like_quantity(ite in proptest::collection::vec(-2.0f64..2.0, 1..50)) {
        // Identity of indiscernibles and symmetry.
        prop_assert_eq!(pehe(&ite, &ite), 0.0);
        let zeros = vec![0.0; ite.len()];
        let forward = pehe(&ite, &zeros);
        let backward = pehe(&zeros, &ite);
        prop_assert!((forward - backward).abs() < 1e-12);
        prop_assert!(forward >= 0.0);
        // PEHE dominates ATE bias (RMS >= |mean|).
        prop_assert!(forward + 1e-12 >= ate_bias(&ite, &zeros));
    }

    #[test]
    fn f1_is_bounded_and_perfect_on_identity(target in proptest::collection::vec(0..2u8, 1..60)) {
        let t: Vec<f64> = target.iter().map(|&v| v as f64).collect();
        let f = f1_score(&t, &t, 0.5);
        if t.iter().any(|&v| v > 0.5) {
            prop_assert_eq!(f, 1.0);
        } else {
            prop_assert_eq!(f, 0.0);
        }
        prop_assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn env_aggregate_std_is_consistent(vals in proptest::collection::vec(-10.0f64..10.0, 1..20)) {
        let agg = env_aggregate(&vals);
        prop_assert!(agg.stability >= 0.0);
        prop_assert!((agg.std * agg.std - agg.stability).abs() < 1e-9);
        let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(agg.mean >= min - 1e-12 && agg.mean <= max + 1e-12);
    }

    #[test]
    fn mmd_lin_is_nonnegative_symmetric_and_zero_on_self(x in matrix_strategy(8, 3), y in matrix_strategy(6, 3)) {
        let xy = ipm_plain(IpmKind::MmdLin, &x, &y);
        let yx = ipm_plain(IpmKind::MmdLin, &y, &x);
        prop_assert!(xy >= 0.0);
        prop_assert!((xy - yx).abs() < 1e-9);
        prop_assert!(ipm_plain(IpmKind::MmdLin, &x, &x) < 1e-12);
    }

    #[test]
    fn weighted_ipm_with_unit_weights_matches_unweighted(x in matrix_strategy(7, 2), y in matrix_strategy(5, 2)) {
        let unit_w_x = vec![1.0; 7];
        let unit_w_y = vec![1.0; 5];
        for kind in [IpmKind::MmdLin, IpmKind::MmdRbf { sigma: 1.0 }] {
            let a = ipm_plain(kind, &x, &y);
            let b = ipm_weighted_plain(kind, &x, &y, Some(&unit_w_x), Some(&unit_w_y));
            prop_assert!((a - b).abs() < 1e-9, "{kind:?}: {a} vs {b}");
        }
    }

    #[test]
    fn weight_scaling_invariance_of_ipm(x in matrix_strategy(6, 2), y in matrix_strategy(6, 2), scale in 0.1f64..10.0) {
        // Multiplying all weights by a constant must not change the IPM
        // (weights are renormalised per group).
        let w: Vec<f64> = (1..=6).map(|i| i as f64).collect();
        let w_scaled: Vec<f64> = w.iter().map(|v| v * scale).collect();
        let a = ipm_weighted_plain(IpmKind::MmdLin, &x, &y, Some(&w), None);
        let b = ipm_weighted_plain(IpmKind::MmdLin, &x, &y, Some(&w_scaled), None);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn hsic_rff_is_nonnegative_and_symmetric(series in proptest::collection::vec((-2.0f64..2.0, -2.0f64..2.0), 10..60)) {
        let a: Vec<f64> = series.iter().map(|p| p.0).collect();
        let b: Vec<f64> = series.iter().map(|p| p.1).collect();
        let mut rng = rng_from_seed(42);
        let rff = Rff::sample(&mut rng, 4);
        let ab = hsic_rff_pair(&a, &b, &rff, None);
        let ba = hsic_rff_pair(&b, &a, &rff, None);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn synthetic_generator_respects_shapes_and_overlap(n in 100usize..300, seed in 0u64..20) {
        use sbrl_hap::data::{SyntheticConfig, SyntheticProcess};
        let process = SyntheticProcess::new(
            SyntheticConfig {
                m_instrument: 2,
                m_confounder: 2,
                m_adjustment: 2,
                m_unstable: 1,
                pool_factor: 4,
                threshold_pool: 400,
            },
            seed,
        );
        let d = process.generate(2.5, n, seed);
        prop_assert_eq!(d.n(), n);
        prop_assert_eq!(d.dim(), 7);
        prop_assert!(d.validate().is_ok());
        // Overlap at generation scale: both arms populated.
        let frac = d.treated_fraction();
        prop_assert!(frac > 0.02 && frac < 0.98, "treated fraction {frac}");
    }

    #[test]
    fn partial_selection_matches_the_full_sort(
        palette_idx in proptest::collection::vec(0usize..6, 1..300),
        k_frac in 0.0f64..=1.0,
        seed in 0u64..1_000,
    ) {
        use rand::RngExt;
        use sbrl_hap::data::weighted_sample_without_replacement;
        // Infinite and huge-magnitude log weights give many tied keys:
        // `ln(-ln u)` is lost in rounding next to ±1e18.
        const PALETTE: [f64; 6] = [0.0, -2.5, 1e18, -1e18, f64::INFINITY, f64::NEG_INFINITY];
        let log_w: Vec<f64> = palette_idx.iter().map(|&i| PALETTE[i]).collect();
        let k = (k_frac * log_w.len() as f64) as usize;
        // The full stable sort by key that the partial selection replaced.
        let mut rng = rng_from_seed(seed);
        let mut keyed: Vec<(f64, usize)> = log_w
            .iter()
            .enumerate()
            .map(|(i, &lw)| {
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                ((-u.ln()).ln() - lw, i)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut expected: Vec<usize> = keyed.into_iter().take(k).map(|(_, i)| i).collect();
        expected.sort_unstable();
        let got = weighted_sample_without_replacement(&mut rng_from_seed(seed), &log_w, k);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn grid_method_names_round_trip(idx in 0usize..9) {
        // Covers all nine grid cells across cases: every table label parses
        // back to the spec that produced it, and Display agrees with name().
        let spec = MethodSpec::grid()[idx];
        let parsed: MethodSpec =
            spec.name().parse().map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(parsed, spec);
        prop_assert_eq!(parsed.to_string(), spec.name());
        // Case-insensitivity holds, too.
        let lower: MethodSpec = spec.name().to_lowercase().parse()
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(lower, spec);
    }

    #[test]
    fn junk_suffixes_break_every_grid_name(idx in 0usize..9, junk in 33u8..127) {
        // Appending any printable byte other than the separators the parser
        // deliberately ignores ('+', '-', '_', and whitespace is trimmed)
        // must turn each of the nine grid names into a typed parse error.
        let junk = junk as char;
        if matches!(junk, '+' | '-' | '_') {
            return Ok(());
        }
        let spec = MethodSpec::grid()[idx];
        let broken = format!("{}{junk}", spec.name());
        prop_assert!(
            broken.parse::<MethodSpec>().is_err(),
            "'{broken}' should not parse"
        );
    }

    #[test]
    fn random_strings_parse_to_grid_cells_or_typed_errors(
        chars in proptest::collection::vec(33u8..127, 1..24)
    ) {
        let s: String = chars.iter().map(|&b| b as char).collect();
        match s.parse::<MethodSpec>() {
            // Random bytes may legitimately spell a grid cell (parsing is
            // case- and separator-insensitive); anything else is a bug.
            Ok(spec) => {
                let grid_names: Vec<String> =
                    MethodSpec::grid().iter().map(|m| m.name()).collect();
                prop_assert!(grid_names.contains(&spec.name()), "junk '{s}' parsed to {spec}");
            }
            // The error is typed and names the offending segment.
            Err(e) => prop_assert!(format!("{e}").contains("unknown")),
        }
    }

    #[test]
    fn scaler_transform_is_affine_invariant_roundtrip(x in matrix_strategy(20, 3)) {
        use sbrl_hap::data::Scaler;
        let scaler = Scaler::fit(&x);
        let z = scaler.transform(&x);
        // Re-standardising an already standardised matrix is a no-op.
        let z2 = Scaler::fit(&z).transform(&z);
        prop_assert!(z.approx_eq(&z2, 1e-6));
    }
}
