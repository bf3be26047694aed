//! Property-based tests over the core invariants of the reproduction:
//! touch→tuple mapping, sample hierarchies, running aggregates, joins, layout
//! rotation, the gesture synthesizer, and the epoch-versioned catalog's
//! live-restructure atomicity.

use dbtouch::baseline::NaiveEngine;
use dbtouch::core::mapping::TouchMapper;
use dbtouch::core::operators::aggregate::{AggregateKind, RunningAggregate};
use dbtouch::core::operators::filter::{CompareOp, Predicate};
use dbtouch::core::operators::join::{BlockingHashJoin, JoinSide, SymmetricHashJoin};
use dbtouch::gesture::synthesizer::SlideSegment;
use dbtouch::gesture::view::View;
use dbtouch::prelude::*;
use dbtouch::server::{digest_outcomes, TraceOutcome};
use dbtouch::storage::column::Column as StorageColumn;
use dbtouch::storage::layout::Layout;
use dbtouch::storage::matrix::Matrix;
use dbtouch::storage::rotation::RotationTask;
use dbtouch::storage::sample::SampleHierarchy;
use proptest::prelude::*;
use std::sync::Arc;

mod oracle;

/// The naive engine's column of integers.
fn ints(values: &[i64]) -> Vec<Value> {
    values.iter().copied().map(Value::Int).collect()
}

/// The naive engine's column of floats.
fn floats(values: &[f64]) -> Vec<Value> {
    values.iter().copied().map(Value::Float).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Rule-of-Three mapping is monotone in the touch location and always
    /// within bounds, for any object geometry and tuple count.
    #[test]
    fn touch_mapping_is_monotone_and_bounded(
        tuples in 1u64..5_000_000,
        height in 1.0f64..40.0,
        samples in 2usize..40,
    ) {
        let view = View::for_column("c", tuples, SizeCm::new(2.0, height)).unwrap();
        let mut last = 0u64;
        for i in 0..samples {
            let y = height * i as f64 / (samples - 1) as f64;
            let row = TouchMapper::row_for_touch(&view, PointCm::new(1.0, y))
                .unwrap()
                .unwrap();
            prop_assert!(row.0 < tuples);
            prop_assert!(row.0 >= last);
            last = row.0;
        }
        // The last touch addresses the last tuple.
        prop_assert_eq!(last, tuples - 1);
    }

    /// Rotating a view never changes which tuple a given fraction of the object
    /// addresses (Section 2.4).
    #[test]
    fn rotation_preserves_touch_mapping(
        tuples in 1u64..1_000_000,
        fraction in 0.0f64..1.0,
    ) {
        let view = View::for_column("c", tuples, SizeCm::new(2.0, 10.0)).unwrap();
        let rotated = view.rotated();
        let before = TouchMapper::row_for_touch(&view, PointCm::new(1.0, 10.0 * fraction)).unwrap();
        let after = TouchMapper::row_for_touch(&rotated, PointCm::new(10.0 * fraction, 1.0)).unwrap();
        prop_assert_eq!(before, after);
    }

    /// Every sample level contains only values present in the base data, level
    /// sizes shrink geometrically, and row mapping stays within bounds.
    #[test]
    fn sample_hierarchy_is_consistent(
        len in 1u64..20_000,
        levels in 1u8..10,
        probe in 0u64..20_000,
    ) {
        let base: Vec<i64> = (0..len as i64).map(|i| i * 3 + 1).collect();
        let hierarchy = SampleHierarchy::build(StorageColumn::from_i64("c", base.clone()), levels).unwrap();
        for level in 0..hierarchy.level_count() {
            let col = hierarchy.level(level).unwrap();
            let stride = hierarchy.stride(level);
            prop_assert_eq!(col.len(), len.div_ceil(stride));
            // spot-check values come from the base data at the expected stride
            for i in (0..col.len()).step_by(7) {
                let v = col.get(RowId(i)).unwrap().as_i64().unwrap();
                prop_assert_eq!(v, base[(i * stride) as usize]);
            }
        }
        let probe = probe % len;
        for level in 0..hierarchy.level_count() {
            let mapped = hierarchy.shape().map_row(RowId(probe), level).unwrap();
            prop_assert!(mapped.0 < hierarchy.level(level).unwrap().len());
            let back = hierarchy.unmap_row(mapped, level).unwrap();
            prop_assert!(back.distance(RowId(probe)) < hierarchy.stride(level));
        }
    }

    /// A running aggregate fed value-by-value matches a batch recomputation
    /// over the same values.
    #[test]
    fn running_aggregate_matches_batch(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        for kind in AggregateKind::ALL {
            let mut agg = RunningAggregate::new(kind);
            for &v in &values {
                agg.update(v);
            }
            let expected = match kind {
                AggregateKind::Count => values.len() as f64,
                AggregateKind::Sum => values.iter().sum(),
                AggregateKind::Avg => values.iter().sum::<f64>() / values.len() as f64,
                AggregateKind::Min => values.iter().cloned().fold(f64::MAX, f64::min),
                AggregateKind::Max => values.iter().cloned().fold(f64::MIN, f64::max),
            };
            let got = agg.value().unwrap();
            prop_assert!((got - expected).abs() <= 1e-6 * expected.abs().max(1.0),
                "{kind:?}: got {got}, expected {expected}");
        }
    }

    /// The non-blocking symmetric hash join produces exactly the same matched
    /// pairs as the classical blocking hash join, for any inputs and any
    /// interleaving of the two sides.
    #[test]
    fn symmetric_join_equals_blocking_join(
        left in prop::collection::vec(0i64..30, 0..60),
        right in prop::collection::vec(0i64..30, 0..60),
        interleave_seed in 0u64..1000,
    ) {
        let mut symmetric = SymmetricHashJoin::new();
        let mut sym_pairs = Vec::new();
        // Deterministic pseudo-random interleaving of the two sides.
        let mut li = 0usize;
        let mut ri = 0usize;
        let mut state = interleave_seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        while li < left.len() || ri < right.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let take_left = ri >= right.len() || (li < left.len() && state % 2 == 0);
            if take_left {
                sym_pairs.extend(symmetric.push(JoinSide::Left, RowId(li as u64), Value::Int(left[li])));
                li += 1;
            } else {
                sym_pairs.extend(symmetric.push(JoinSide::Right, RowId(ri as u64), Value::Int(right[ri])));
                ri += 1;
            }
        }

        let mut blocking = BlockingHashJoin::new();
        for (i, &k) in left.iter().enumerate() {
            blocking.build_row(RowId(i as u64), Value::Int(k));
        }
        blocking.finish_build();
        let mut blk_pairs = Vec::new();
        for (i, &k) in right.iter().enumerate() {
            blk_pairs.extend(blocking.probe(RowId(i as u64), Value::Int(k)));
        }

        let normalize = |pairs: Vec<dbtouch::core::operators::join::JoinMatch>| {
            let mut v: Vec<(u64, u64)> = pairs.iter().map(|m| (m.left_row.0, m.right_row.0)).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(normalize(sym_pairs), normalize(blk_pairs));
    }

    /// Rotating a matrix to the other layout and back preserves every cell.
    #[test]
    fn rotation_round_trips(
        rows in 1u64..500,
        chunk in 1u64..600,
    ) {
        let table = Table::from_columns(
            "t",
            vec![
                StorageColumn::from_i64("a", (0..rows as i64).collect()),
                StorageColumn::from_f64("b", (0..rows).map(|i| i as f64 / 3.0).collect()),
            ],
        )
        .unwrap();
        let original = Matrix::from_table(table);
        let once = RotationTask::new(original.clone(), chunk).finish().unwrap();
        prop_assert_eq!(once.layout(), Layout::RowMajor);
        let twice = RotationTask::new(once, chunk).finish().unwrap();
        prop_assert_eq!(twice.layout(), Layout::ColumnMajor);
        for probe in [0, rows / 2, rows - 1] {
            prop_assert_eq!(
                twice.get_row(RowId(probe)).unwrap(),
                original.get_row(RowId(probe)).unwrap()
            );
        }
    }

    /// Synthesized slides are always valid traces whose sample count scales
    /// with duration and sampling rate.
    #[test]
    fn synthesized_slides_are_valid(
        duration in 0.2f64..5.0,
        rate in 20.0f64..120.0,
        height in 2.0f64..30.0,
    ) {
        let view = View::for_column("c", 1_000_000, SizeCm::new(2.0, height)).unwrap();
        let trace = GestureSynthesizer::new(rate).slide_down(&view, duration);
        prop_assert!(trace.validate().is_ok());
        let expected = (duration * rate) as i64;
        prop_assert!((trace.len() as i64 - expected).abs() <= expected / 5 + 4,
            "trace has {} samples, expected ~{expected}", trace.len());
        // the slide covers the object end to end
        let last = trace.events.last().unwrap().location;
        prop_assert!((last.y - height).abs() < 1e-6);
    }

    /// Running a session never reports more entries than touches, and the
    /// per-touch accounting stays internally consistent.
    #[test]
    fn session_accounting_invariants(
        rows in 1_000i64..200_000,
        duration in 0.3f64..2.0,
    ) {
        let mut kernel = Kernel::new(KernelConfig::default());
        let id = kernel
            .load_column("c", (0..rows).collect(), SizeCm::new(2.0, 10.0))
            .unwrap();
        kernel
            .set_action(
                id,
                dbtouch::core::kernel::TouchAction::Summary {
                    half_window: Some(5),
                    kind: AggregateKind::Avg,
                },
            )
            .unwrap();
        let view = kernel.view(id).unwrap();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, duration);
        let outcome = kernel.run_trace(id, &trace).unwrap();
        let s = &outcome.stats;
        prop_assert_eq!(s.touches as usize, trace.len());
        prop_assert!(s.entries_returned <= s.touches);
        prop_assert!(s.entries_returned as usize == outcome.results.len());
        prop_assert!(s.rows_touched >= s.entries_returned);
        prop_assert_eq!(s.bytes_touched, s.rows_touched * 8);
        prop_assert!(s.duplicate_touches + s.entries_returned <= s.touches);
    }
}

proptest! {
    // Each case spawns a server plus a restructure thread; keep the case
    // count modest — the property quantifies over scheduling anyway, so the
    // interesting variation comes from the interleaving, not the inputs.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Epoch-snapshot semantics: a gesture trace racing one catalog
    /// restructure observes *exactly* the pre-restructure object or exactly
    /// the post-restructure object — never a hybrid. Every session's digest
    /// must equal one of the two sequential baselines, whatever the
    /// interleaving.
    #[test]
    fn restructure_interleaving_is_atomic(
        rows in 2_000i64..20_000,
        sessions in 1usize..5,
        spin in 0u32..50_000,
    ) {
        let build = || {
            let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
            let table = Table::from_columns(
                "t",
                vec![
                    StorageColumn::from_i64("id", (0..rows).collect()),
                    StorageColumn::from_f64("price", (0..rows).map(|i| i as f64 / 2.0).collect()),
                    StorageColumn::from_i64("qty", (0..rows).map(|i| i % 7).collect()),
                ],
            )
            .unwrap();
            let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
            (catalog, tid)
        };

        // Sequential baselines on a separate catalog with identical data:
        // the all-before digest and (after dragging "qty" out) the all-after
        // digest. Tuple results include the whole row, so the two differ.
        let (baseline_catalog, baseline_tid) = build();
        let view = baseline_catalog.data(baseline_tid).unwrap().base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 0.4);
        let digest_now = |catalog: &Arc<SharedCatalog>, tid| {
            let mut kernel = Kernel::from_catalog(Arc::clone(catalog));
            kernel.set_action(tid, TouchAction::Tuple).unwrap();
            let outcome = kernel.run_trace(tid, &trace).unwrap();
            digest_outcomes([TraceOutcome { object: tid, outcome }].iter())
        };
        let before = digest_now(&baseline_catalog, baseline_tid);
        baseline_catalog
            .drag_column_out(baseline_tid, "qty", SizeCm::new(2.0, 10.0))
            .unwrap();
        let after = digest_now(&baseline_catalog, baseline_tid);
        prop_assert_ne!(before, after);

        // Live: K sessions each run the one trace concurrently with one
        // restructure landing at an arbitrary point in the schedule.
        let (catalog, tid) = build();
        let server = ExplorationServer::serve(ServerConfig::with_workers(2).with_catalog(Arc::clone(&catalog))).unwrap();
        let mutator = {
            let catalog = Arc::clone(&catalog);
            std::thread::spawn(move || {
                for _ in 0..spin {
                    std::hint::spin_loop();
                }
                catalog
                    .drag_column_out(tid, "qty", SizeCm::new(2.0, 10.0))
                    .unwrap();
            })
        };
        let drivers: Vec<_> = (0..sessions)
            .map(|_| {
                let session = server.open_session();
                let trace = trace.clone();
                std::thread::spawn(move || -> SessionReport {
                    session.set_action(tid, TouchAction::Tuple).unwrap();
                    session.run_trace(tid, trace).unwrap();
                    session.close().unwrap()
                })
            })
            .collect();
        let reports: Vec<SessionReport> = drivers.into_iter().map(|d| d.join().unwrap()).collect();
        mutator.join().unwrap();
        server.shutdown();

        for report in &reports {
            prop_assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
            let digest = report.result_digest();
            prop_assert!(
                digest == before || digest == after,
                "hybrid result observed: digest {digest} is neither the \
                 all-before ({before}) nor the all-after ({after}) order"
            );
            // A session whose state was rebuilt at a gesture boundary must
            // have produced the post-restructure answer (a fresh checkout
            // after the restructure also yields it, with no rebuild seen).
            if report.restructures_seen > 0 {
                prop_assert_eq!(digest, after);
            }
        }
    }

    /// Remote refinements racing a live restructure: whatever the
    /// interleaving of in-flight refinements with `drag_column_out` /
    /// `group_into_table`, every refinement either applies cleanly to the
    /// pre-restructure trace it belongs to or is dropped (stale build) —
    /// and a closed (drained) session's digest always equals one of the two
    /// all-local sequential replays. Refinements are identity-stamped
    /// against the immutable build their trace ran on, so none may be
    /// dropped here and none may straddle builds.
    #[test]
    fn refinement_restructure_interleaving_is_clean_or_dropped(
        rows in 60_000i64..150_000,
        sessions in 1usize..4,
        spin in 0u32..200_000,
        group_flag in 0u8..2,
    ) {
        use dbtouch::types::RemoteSplitConfig;

        let group_too = group_flag == 1;
        // Overlapped split on a fast link; the all-local baselines use the
        // same sample depth so granularity decisions are identical.
        let split = RemoteSplitConfig::default()
            .with_local_min_level(11)
            .with_network(300, 10_000);
        let remote_config = KernelConfig::default()
            .with_sample_levels(12)
            .with_remote_split(Some(split));
        let local_config = KernelConfig::default().with_sample_levels(12);
        let build = |config: KernelConfig| {
            let catalog = Arc::new(SharedCatalog::new(config));
            let table = Table::from_columns(
                "t",
                vec![
                    StorageColumn::from_i64("id", (0..rows).collect()),
                    StorageColumn::from_f64("price", (0..rows).map(|i| i as f64 / 2.0).collect()),
                    StorageColumn::from_i64("qty", (0..rows).map(|i| i % 7).collect()),
                ],
            )
            .unwrap();
            let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
            (catalog, tid)
        };
        let action = TouchAction::Summary {
            half_window: Some(5),
            kind: AggregateKind::Avg,
        };

        // A slow slide: fine sample levels, i.e. remote traffic.
        let (baseline_catalog, baseline_tid) = build(local_config);
        let view = baseline_catalog.data(baseline_tid).unwrap().base_view().clone();
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, 2.8);
        let digest_now = |catalog: &Arc<SharedCatalog>, tid| {
            let mut kernel = Kernel::from_catalog(Arc::clone(catalog));
            kernel.set_action(tid, action.clone()).unwrap();
            let outcome = kernel.run_trace(tid, &trace).unwrap();
            digest_outcomes([TraceOutcome { object: tid, outcome }].iter())
        };
        let before = digest_now(&baseline_catalog, baseline_tid);
        baseline_catalog
            .drag_column_out(baseline_tid, "price", SizeCm::new(2.0, 10.0))
            .unwrap();
        let after = digest_now(&baseline_catalog, baseline_tid);
        prop_assert_ne!(before, after);

        // Live: K overlapped sessions race one restructure (plus, sometimes,
        // a group_into_table creating a fresh object mid-flight).
        let (catalog, tid) = build(remote_config);
        let server = ExplorationServer::serve(ServerConfig::with_workers(2).with_catalog(Arc::clone(&catalog))).unwrap();
        let mutator = {
            let catalog = Arc::clone(&catalog);
            std::thread::spawn(move || {
                for _ in 0..spin {
                    std::hint::spin_loop();
                }
                let cid = catalog
                    .drag_column_out(tid, "price", SizeCm::new(2.0, 10.0))
                    .unwrap();
                if group_too {
                    catalog
                        .group_into_table("grouped", &[cid], SizeCm::new(2.0, 10.0))
                        .unwrap();
                }
            })
        };
        let drivers: Vec<_> = (0..sessions)
            .map(|_| {
                let session = server.open_session();
                let trace = trace.clone();
                let action = action.clone();
                std::thread::spawn(move || -> SessionReport {
                    session.set_action(tid, action).unwrap();
                    session.run_trace(tid, trace).unwrap();
                    session.close().unwrap()
                })
            })
            .collect();
        let reports: Vec<SessionReport> = drivers.into_iter().map(|d| d.join().unwrap()).collect();
        mutator.join().unwrap();
        server.shutdown();

        for report in &reports {
            prop_assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
            // close() is a drain barrier: nothing may still be in flight.
            prop_assert_eq!(report.pending_refinements(), 0);
            // Refinements bind to the immutable build their trace ran on, so
            // every one applies cleanly — the restructure can never produce a
            // cross-build application, and therefore no drops either.
            prop_assert_eq!(report.total_refinements_dropped(), 0);
            prop_assert_eq!(
                report.total_refinements_applied(),
                report.total_remote().progressive_requests
            );
            let digest = report.result_digest();
            prop_assert!(
                digest == before || digest == after,
                "hybrid result observed: drained digest {digest} is neither the \
                 all-before ({before}) nor the all-after ({after}) replay"
            );
            if report.restructures_seen > 0 {
                prop_assert_eq!(digest, after);
            }
        }
    }
}

// The scan-knob grid spawns a server per swept point; a few cases suffice —
// the property quantifies over the grid itself, churn interleavings and the
// remote executor's scheduling, so each case already covers a lot of ground.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The segment kernel's promise: digests, `final_aggregate` bits and
    /// `group_aggregates` are identical across `scan_parallelism ∈ {1, 2, 8}`
    /// × `segment_rows ∈ {small, large, unaligned-to-len}` — with the remote
    /// overlap executor active, and (membership in the sequential baselines)
    /// under live `drag_column_out`/`drag_column_into` churn. Every outcome
    /// also equals the oracle's, and so does a capped run: a 10 µs
    /// `touch_budget_micros` at base-level reads over zone-mapped 4 096-row
    /// segments, whose every window is a refinement.
    #[test]
    fn scan_knob_grid_is_digest_invariant_under_churn_and_remote(
        rows in 60_000i64..120_000,
        duration in 2.0f64..2.8,
        spin in 0u32..150_000,
    ) {
        use dbtouch::types::RemoteSplitConfig;

        let config = |parallelism: usize, segment_rows: u64, remote: bool| {
            let split = remote.then(|| {
                RemoteSplitConfig::default()
                    .with_local_min_level(11)
                    .with_network(300, 10_000)
            });
            KernelConfig::default()
                .with_sample_levels(12)
                .with_scan_parallelism(parallelism)
                .with_segment_rows(segment_rows)
                .with_remote_split(split)
        };
        let ids: Vec<i64> = (0..rows).collect();
        let prices: Vec<f64> = (0..rows).map(|i| i as f64 / 2.0).collect();
        let qtys: Vec<i64> = (0..rows).map(|i| i % 7).collect();
        let build = |c: KernelConfig| {
            let catalog = Arc::new(SharedCatalog::new(c));
            let table = Table::from_columns(
                "t",
                vec![
                    StorageColumn::from_i64("id", ids.clone()),
                    StorageColumn::from_f64("price", prices.clone()),
                    StorageColumn::from_i64("qty", qtys.clone()),
                ],
            )
            .unwrap();
            let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
            (catalog, tid)
        };
        // The oracle's columns: the table as loaded, with `price` dragged
        // out, and with it merged back (appended).
        let (id, price, qty) = (ints(&ids), floats(&prices), ints(&qtys));
        let layouts = [
            vec![id.clone(), price.clone(), qty.clone()],
            vec![id.clone(), qty.clone()],
            vec![id, qty, price],
        ];
        // Wide windows: every touch of the integer columns decomposes into
        // segment morsels at small segment_rows settings.
        let action = TouchAction::Summary {
            half_window: Some(20_000),
            kind: AggregateKind::Avg,
        };
        let group_action = TouchAction::GroupBy {
            group_attribute: 2,
            value_attribute: 0,
            kind: AggregateKind::Sum,
        };

        let (baseline_catalog, baseline_tid) = build(config(1, 65_536, false));
        let start_view = |catalog: &Arc<SharedCatalog>| {
            catalog.data(baseline_tid).unwrap().base_view().clone()
        };
        let view = start_view(&baseline_catalog);
        let trace = GestureSynthesizer::new(60.0).slide_down(&view, duration);
        let run_local = |catalog: &Arc<SharedCatalog>, tid, action: &TouchAction| {
            let mut kernel = Kernel::from_catalog(Arc::clone(catalog));
            kernel.set_action(tid, action.clone()).unwrap();
            let outcome = kernel.run_trace(tid, &trace).unwrap();
            let digest = digest_outcomes([TraceOutcome { object: tid, outcome: outcome.clone() }].iter());
            (digest, outcome)
        };
        let oracle = |layout: &[Vec<Value>], view: &View, action: &TouchAction, config: &KernelConfig| {
            let mut engine = NaiveEngine::new(layout.to_vec(), config.sample_levels);
            oracle::expected_outcome(&mut engine, view, action, config, &trace)
        };
        // Sequential baselines at scan_parallelism = 1: the untouched table,
        // after dragging `price` out, and after merging it back. Each is
        // also the oracle's outcome over that layout.
        let local = baseline_catalog.config().clone();
        let expected0 = oracle(&layouts[0], &view, &action, &local);
        let expected_groups = oracle(&layouts[0], &view, &group_action, &local);
        let (d0, out0) = run_local(&baseline_catalog, baseline_tid, &action);
        oracle::check(&out0, &expected0, true)?;
        let (_, groups0) = run_local(&baseline_catalog, baseline_tid, &group_action);
        oracle::check(&groups0, &expected_groups, true)?;
        // The per-touch actions: the sorted `price` is under the slide, so
        // its zone map lets the filtered scan skip the upper half's blocks.
        let lower_half = Predicate::compare(CompareOp::Lt, rows as f64 / 4.0);
        for point_action in [
            TouchAction::Scan,
            TouchAction::FilteredScan { predicate: lower_half.clone() },
            TouchAction::Aggregate(AggregateKind::Sum),
            TouchAction::FilteredAggregate { predicate: lower_half, kind: AggregateKind::Avg },
        ] {
            let expected = oracle(&layouts[0], &view, &point_action, &local);
            let (_, outcome) = run_local(&baseline_catalog, baseline_tid, &point_action);
            oracle::check(&outcome, &expected, true)
                .map_err(|e| format!("{point_action:?}: {e}"))?;
            if matches!(point_action, TouchAction::FilteredScan { .. }) {
                prop_assert!(outcome.stats.index_skips > 0, "no touch was index-skipped");
            }
        }
        let qid = baseline_catalog
            .drag_column_out(baseline_tid, "price", SizeCm::new(2.0, 10.0))
            .unwrap();
        let expected1 = oracle(&layouts[1], &start_view(&baseline_catalog), &action, &local);
        let (d1, out1) = run_local(&baseline_catalog, baseline_tid, &action);
        oracle::check(&out1, &expected1, true)?;
        baseline_catalog.drag_column_into(baseline_tid, qid).unwrap();
        let expected2 = oracle(&layouts[2], &start_view(&baseline_catalog), &action, &local);
        let (d2, out2) = run_local(&baseline_catalog, baseline_tid, &action);
        oracle::check(&out2, &expected2, true)?;
        prop_assert_ne!(d0, d1);

        let serve = |catalog: &Arc<SharedCatalog>, tid| {
            let server =
                ExplorationServer::serve(ServerConfig::with_workers(2).with_catalog(Arc::clone(catalog))).unwrap();
            let session = server.open_session();
            session.set_action(tid, action.clone()).unwrap();
            session.run_trace(tid, trace.clone()).unwrap();
            let report = session.close().unwrap();
            server.shutdown();
            report
        };
        for &parallelism in &[1usize, 2, 8] {
            for &segment_rows in &[3_000u64, 65_536, 7_777] {
                // Static sweep, remote overlap executor active: the served
                // (drained) digest and aggregate bits must equal the
                // sequential all-local baseline exactly.
                let (catalog, tid) = build(config(parallelism, segment_rows, true));
                let report = serve(&catalog, tid);
                prop_assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
                prop_assert_eq!(report.pending_refinements(), 0);
                let outcome = &report.outcomes[0].outcome;
                prop_assert!(
                    outcome.final_aggregate.map(f64::to_bits) == out0.final_aggregate.map(f64::to_bits),
                    "final_aggregate drifted at parallelism={parallelism}, \
                     segment_rows={segment_rows}"
                );
                prop_assert!(
                    report.result_digest() == d0,
                    "digest drifted at parallelism={parallelism}, \
                     segment_rows={segment_rows}"
                );
                oracle::check(outcome, &expected0, false)?;

                // Group-by rides the same session machinery; its per-group
                // sums must not depend on the scan knobs either.
                let (_, groups) = run_local(&catalog, tid, &group_action);
                prop_assert_eq!(&groups.final_groups, &groups0.final_groups);
                oracle::check(&groups, &expected_groups, true)?;
            }

            // The capped input, all-local: `price` dragged out puts the
            // integer `qty` under the slide, and every 40 001-row base-level
            // window over the 2 500-row cap is answered from its first rows,
            // then folded in full — interior zone-map blocks from the index.
            let mut capped = config(parallelism, 4_096, false).with_adaptive_sampling(false);
            capped.touch_budget_micros = 10;
            let (catalog, tid) = build(capped.clone());
            catalog.drag_column_out(tid, "price", SizeCm::new(2.0, 10.0)).unwrap();
            let expected = oracle(&layouts[1], &start_view(&catalog), &action, &capped);
            prop_assert!(expected.stats.refinements > 0, "the capped input refines nothing");
            let (_, outcome) = run_local(&catalog, tid, &action);
            oracle::check(&outcome, &expected, true)
                .map_err(|e| format!("capped run at parallelism={parallelism}: {e}"))?;
            prop_assert!(outcome.stats.pruned_segments > 0, "no segment was index-answered");
        }

        // Live churn at representative grid points: one mutator drags `price`
        // out and merges it back while the session's trace races it. The
        // epoch-snapshot guarantee must hold at any parallelism: the digest
        // is exactly one of the three sequential baselines, never a hybrid,
        // and the outcome is that layout's oracle outcome.
        let expected = [expected0, expected1, expected2];
        for &(parallelism, segment_rows) in &[(2usize, 3_000u64), (8, 7_777), (2, 65_536)] {
            let (catalog, tid) = build(config(parallelism, segment_rows, true));
            let mutator = {
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || {
                    for _ in 0..spin {
                        std::hint::spin_loop();
                    }
                    let qid = catalog
                        .drag_column_out(tid, "price", SizeCm::new(2.0, 10.0))
                        .unwrap();
                    catalog.drag_column_into(tid, qid).unwrap();
                })
            };
            let report = serve(&catalog, tid);
            mutator.join().unwrap();
            prop_assert!(report.errors.is_empty(), "errors: {:?}", report.errors);
            let digest = report.result_digest();
            let layout = [d0, d1, d2].iter().position(|&d| d == digest);
            prop_assert!(
                layout.is_some(),
                "hybrid result under churn at parallelism={parallelism}, \
                 segment_rows={segment_rows}: digest {digest} matches no baseline \
                 ({d0}, {d1}, {d2})"
            );
            oracle::check(&report.outcomes[0].outcome, &expected[layout.unwrap()], false)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Page-span encoding is lossless and self-describing on adversarial
    /// shapes: empty spans, one long run, strict alternation, bounded
    /// cardinality and full-entropy data all decode back to the exact input
    /// bytes, per-row offsets address the same values, and the packed form
    /// concatenates back to the verbatim column.
    #[test]
    fn span_encodings_round_trip_adversarial_data(
        shape in prop_oneof![
            // empty
            Just((0usize, 0u8)),
            // single run / alternating / short runs / high cardinality
            (1usize..3_000).prop_map(|n| (n, 1u8)),
            (1usize..3_000).prop_map(|n| (n, 2u8)),
            (1usize..3_000).prop_map(|n| (n, 3u8)),
            (1usize..3_000).prop_map(|n| (n, 4u8)),
        ],
        a in -1_000_000i64..1_000_000,
        b in -1_000_000i64..1_000_000,
        cap in 1u16..=256,
    ) {
        use dbtouch::storage::encoding::{
            decode_span, encode_span, pack_row_bytes, span_value_offset, span_view,
            EncodingPolicy,
        };

        let (n, kind): (usize, u8) = shape;
        let values: Vec<i64> = match kind {
            0 => Vec::new(),
            1 => vec![a; n],
            2 => (0..n).map(|i| if i % 2 == 0 { a } else { b }).collect(),
            3 => (0..n as i64).map(|i| (i / 37) % 11).collect(),
            _ => (0..n as i64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15u64 as i64).wrapping_add(a))
                .collect(),
        };
        let raw: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let policy = EncodingPolicy { enabled: true, dict_max_cardinality: cap };

        // Unbounded encode always succeeds (Raw is always a candidate) and
        // round-trips bit-exactly, wholesale and per row.
        let (enc, payload) = encode_span(&raw, 8, &policy, usize::MAX).unwrap();
        let decoded = decode_span(&payload, 8).unwrap();
        prop_assert!(decoded == raw, "decode mismatch through {enc:?}");
        let (_, rows) = span_view(&payload, 8).unwrap();
        prop_assert_eq!(rows as usize, values.len());
        for idx in (0..rows).step_by(7) {
            let at = span_value_offset(&payload, 8, idx).unwrap();
            let i = idx as usize;
            prop_assert_eq!(&payload[at..at + 8], &raw[i * 8..(i + 1) * 8]);
        }
        prop_assert!(span_value_offset(&payload, 8, rows).is_err());

        // Packing under a real page budget: spans re-concatenate to the
        // verbatim column and the claimed geometry is internally consistent.
        if let Some(packed) = pack_row_bytes(&raw, 8, 29, 232, &policy) {
            prop_assert_eq!(packed.payloads.len() as u64,
                (values.len() as u64).div_ceil(packed.rows_per_page));
            prop_assert_eq!(packed.rows_per_page % 29, 0);
            let mut rebuilt = Vec::with_capacity(raw.len());
            let mut payload_bytes = 0u64;
            for payload in &packed.payloads {
                prop_assert!(payload.len() <= 232, "span overflows the page");
                payload_bytes += payload.len() as u64;
                rebuilt.extend(decode_span(payload, 8).unwrap());
            }
            prop_assert_eq!(&rebuilt, &raw);
            prop_assert_eq!(payload_bytes, packed.payload_bytes);
        }
    }
}

// Encoded-catalog digest invariance persists to (and reopens from) a real
// on-disk store per grid point; a few cases cover the interesting ground.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On-disk representation is invisible to results: for RLE-shaped,
    /// dict-shaped and incompressible columns, a persisted-then-reopened
    /// catalog replays bit-identical digests across encoding {on, off} ×
    /// `scan_parallelism` {1, 8} — while live loads append (and pack) pages
    /// through the same attached store mid-replay — and every outcome
    /// equals the oracle's over the generated values.
    #[test]
    fn encoded_catalog_digests_match_raw_across_parallelism_under_churn(
        rows in 40_000i64..80_000,
        duration in 0.6f64..1.2,
        case in 0u32..u32::MAX,
    ) {
        let datasets: Vec<(&str, Vec<i64>)> = vec![
            ("runs", (0..rows).map(|i| (i / 777) % 5).collect()),
            ("codes", (0..rows).map(|i| i.wrapping_mul(2654435761) % 13).collect()),
            ("unique", (0..rows).map(|i| i.wrapping_mul(2654435761).wrapping_add(17)).collect()),
        ];
        let action = TouchAction::Summary {
            half_window: Some(10_000),
            kind: AggregateKind::Sum,
        };
        let oracle = |values: &[i64], catalog: &Arc<SharedCatalog>, name: &str| {
            let view = catalog.data(catalog.object_id(name).unwrap()).unwrap().base_view().clone();
            let trace = GestureSynthesizer::new(60.0).slide_down(&view, duration);
            let mut engine = NaiveEngine::new(vec![ints(values)], catalog.config().sample_levels);
            oracle::expected_outcome(&mut engine, &view, &action, catalog.config(), &trace)
        };
        let digest_object = |catalog: &Arc<SharedCatalog>, name: &str| {
            let id = catalog.object_id(name).unwrap();
            let data = catalog.data(id).unwrap();
            let trace = GestureSynthesizer::new(60.0).slide_down(data.base_view(), duration);
            let mut kernel = Kernel::from_catalog(Arc::clone(catalog));
            kernel.set_action(id, action.clone()).unwrap();
            let outcome = kernel.run_trace(id, &trace).unwrap();
            let digest = digest_outcomes([TraceOutcome { object: id, outcome: outcome.clone() }].iter());
            (digest, outcome)
        };

        // In-memory baseline: encoding only exists on disk, so these digests
        // are the ground truth every on-disk configuration must reproduce,
        // and the oracle's outcomes the answers every one must equal.
        let baseline = Arc::new(SharedCatalog::new(KernelConfig::default()));
        for (name, values) in &datasets {
            baseline
                .load_column(*name, values.clone(), SizeCm::new(2.0, 10.0))
                .unwrap();
        }
        let mut expected = Vec::new();
        for (name, values) in &datasets {
            let (digest, outcome) = digest_object(&baseline, name);
            let answer = oracle(values, &baseline, name);
            oracle::check(&outcome, &answer, true).map_err(|e| format!("{name} in memory: {e}"))?;
            expected.push((digest, answer));
        }

        for encoding_on in [true, false] {
            for parallelism in [1usize, 8] {
                let config = KernelConfig::default()
                    .with_encoding(encoding_on)
                    .with_scan_parallelism(parallelism);
                let dir = std::env::temp_dir().join(format!(
                    "dbtouch-enc-props-{}-{case:08x}-{encoding_on}-{parallelism}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                {
                    let writer =
                        Arc::new(SharedCatalog::open(&dir, config.clone()).unwrap());
                    for (name, values) in &datasets {
                        writer
                            .load_column(*name, values.clone(), SizeCm::new(2.0, 10.0))
                            .unwrap();
                    }
                }
                let reopened = Arc::new(SharedCatalog::open(&dir, config).unwrap());
                // Churn: concurrent loads persist (and pack) new columns
                // through the same pager the replays are faulting from.
                let churn = {
                    let catalog = Arc::clone(&reopened);
                    let churn_rows = rows / 4;
                    std::thread::spawn(move || {
                        for k in 0..3i64 {
                            catalog
                                .load_column(
                                    format!("churn_{k}"),
                                    (0..churn_rows).map(|i| (i / 501) % 3 + k).collect(),
                                    SizeCm::new(2.0, 10.0),
                                )
                                .unwrap();
                        }
                    })
                };
                for ((name, _), (expected, answer)) in datasets.iter().zip(&expected) {
                    let (actual, outcome) = digest_object(&reopened, name);
                    prop_assert!(
                        actual == *expected,
                        "digest diverged for {name} at encoding={encoding_on}, \
                         parallelism={parallelism}"
                    );
                    oracle::check(&outcome, answer, true).map_err(|e| {
                        format!("{name} at encoding={encoding_on}, parallelism={parallelism}: {e}")
                    })?;
                }
                churn.join().unwrap();
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

// Persistence properties run fewer cases: each one persists to (and reopens
// from) a real on-disk store.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `persist_to` → `open` is digest-transparent: any seeded trace over any
    /// object of the reopened, paged-backed catalog produces bit-identical
    /// results to the in-memory catalog it was persisted from — including
    /// catalogs whose object table carries tombstones and a
    /// `drag_column_into`-reassembled table — and both equal the oracle's.
    /// Optionally the attached reopened catalog is restructured too, and a
    /// second reopen answers as it does. The trace slides down and back up
    /// at a third of the speed, so a summary reads the same windows at two
    /// sample levels.
    #[test]
    fn persisted_catalog_replays_identical_digests(
        rows in 512i64..4_000,
        merge in 0u32..2,
        reshape in 0u32..2,
        duration in 0.2f64..0.8,
        case in 0u32..u32::MAX,
    ) {
        let merge_back = merge == 1;
        let dir = std::env::temp_dir().join(format!(
            "dbtouch-props-{}-{case:08x}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let ids: Vec<i64> = (0..rows).collect();
        let prices: Vec<f64> = (0..rows).map(|i| i as f64 / 2.0).collect();
        let qtys: Vec<i64> = (0..rows).map(|i| i % 7).collect();
        let solo: Vec<i64> = (0..rows).map(|i| i * 3).collect();
        let catalog = Arc::new(SharedCatalog::new(KernelConfig::default()));
        let table = Table::from_columns(
            "t",
            vec![
                StorageColumn::from_i64("id", ids.clone()),
                StorageColumn::from_f64("price", prices.clone()),
                StorageColumn::from_i64("qty", qtys.clone()),
            ],
        )
        .unwrap();
        let tid = catalog.load_table(table, SizeCm::new(6.0, 10.0)).unwrap();
        catalog
            .load_column("solo", solo.clone(), SizeCm::new(2.0, 10.0))
            .unwrap();
        // Restructure history: a dragged-out column, optionally merged back
        // (which rebuilds the table AND leaves a permanent tombstone).
        let qid = catalog.drag_column_out(tid, "qty", SizeCm::new(2.0, 10.0)).unwrap();
        if merge_back {
            catalog.drag_column_into(tid, qid).unwrap();
        }

        // The schema of each object as the restructures left them; a
        // reshaped "t" had "id" dragged out and back in, to its end.
        let schema = |name: &str, reshaped: bool| match name {
            "t" => {
                let mut t = vec!["id", "price"];
                if merge_back {
                    t.push("qty");
                }
                if reshaped {
                    t.rotate_left(1);
                }
                t
            }
            "qty" => vec!["qty"],
            "solo" => vec!["solo"],
            other => panic!("unexpected object {other}"),
        };
        // The oracle's columns, by attribute name.
        let column = |attribute: &str| match attribute {
            "id" => ints(&ids),
            "price" => floats(&prices),
            "qty" => ints(&qtys),
            "solo" => ints(&solo),
            other => panic!("unexpected attribute {other}"),
        };
        let digest_object = |catalog: &Arc<SharedCatalog>, name: &str, reshaped: bool| {
            let id = catalog.object_id(name).unwrap();
            let data = catalog.data(id).unwrap();
            let attributes = schema(name, reshaped);
            let names: Vec<&str> = data.schema().iter().map(|(n, _)| n.as_str()).collect();
            if names != attributes {
                return Err(format!("{name}: schema {names:?}, expected {attributes:?}"));
            }
            let view = data.base_view();
            let trace = GestureSynthesizer::new(60.0).slide_profile(
                view,
                &[
                    SlideSegment::movement(0.0, 1.0, duration),
                    SlideSegment::movement(1.0, 0.0, 3.0 * duration),
                ],
                Timestamp::ZERO,
            );
            let action = if data.schema().len() > 1 {
                TouchAction::Tuple
            } else {
                TouchAction::Summary { half_window: Some(9), kind: AggregateKind::Avg }
            };
            let mut kernel = Kernel::from_catalog(Arc::clone(catalog));
            kernel.set_action(id, action.clone()).unwrap();
            let outcome = kernel.run_trace(id, &trace).unwrap();
            let columns = attributes.iter().map(|a| column(a)).collect();
            let mut engine = NaiveEngine::new(columns, catalog.config().sample_levels);
            let answer =
                oracle::expected_outcome(&mut engine, view, &action, catalog.config(), &trace);
            oracle::check(&outcome, &answer, true).map_err(|e| format!("{name}: {e}"))?;
            Ok::<u64, String>(digest_outcomes([TraceOutcome { object: id, outcome }].iter()))
        };

        let names = catalog.names();
        let mut expected = Vec::new();
        for name in &names {
            expected.push(digest_object(&catalog, name, false)?);
        }
        let epoch = catalog.persist_to(&dir).unwrap();

        let reopened = Arc::new(SharedCatalog::open(&dir, KernelConfig::default()).unwrap());
        prop_assert_eq!(reopened.epoch(), epoch);
        prop_assert_eq!(reopened.names(), names.clone());
        // Tombstones must survive the round trip.
        prop_assert_eq!(reopened.snapshot().slot_count(), catalog.snapshot().slot_count());
        if merge_back {
            prop_assert!(reopened.checkout(qid).is_err(), "tombstoned id must stay dead");
        }
        for (name, expected) in names.iter().zip(expected) {
            let actual = digest_object(&reopened, name, false)?;
            prop_assert!(actual == expected, "digest diverged for {name}");
        }
        if reshape == 1 {
            // The reopened catalog is attached: its restructure persists
            // (reusing the extents it reopened), and a second reopen
            // answers as the restructured catalog does.
            let tid = reopened.object_id("t").unwrap();
            let cid = reopened.drag_column_out(tid, "id", SizeCm::new(2.0, 10.0)).unwrap();
            reopened.drag_column_into(tid, cid).unwrap();
            let mut expected = Vec::new();
            for name in &names {
                expected.push(digest_object(&reopened, name, true)?);
            }
            drop(reopened);
            let again = Arc::new(SharedCatalog::open(&dir, KernelConfig::default()).unwrap());
            for (name, expected) in names.iter().zip(expected) {
                let actual = digest_object(&again, name, true)?;
                prop_assert!(actual == expected, "digest diverged for {name} after a reshape");
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
    }
}
