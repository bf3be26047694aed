//! Quickstart: load a column, touch it, read the results.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! This walks through the basic dbTouch interaction loop of the paper's
//! Section 2: data appears as an abstract object, a tap reveals a single value
//! (schema discovery), a slide scans or aggregates the touched entries, a
//! zoom-in makes the same gesture return more detail.

use dbtouch::core::kernel::TouchAction;
use dbtouch::core::operators::aggregate::AggregateKind;
use dbtouch::prelude::*;

fn main() -> Result<()> {
    // 1. Create a kernel and load one million measurements as a column object
    //    rendered as a 2cm x 10cm rectangle on the (simulated) screen.
    let mut kernel = Kernel::new(KernelConfig::default());
    let measurements: Vec<i64> = (0..1_000_000).map(|i| (i % 1_000) - 500).collect();
    let object = kernel.load_column("measurements", measurements, SizeCm::new(2.0, 10.0))?;
    println!("catalog: {:?}", kernel.catalog_names());

    // 2. Schema-less discovery: a single tap reveals one value, enough to see
    //    that this is an integer column.
    let tap = kernel.tap(object, 0.5)?;
    println!(
        "tap at the middle of the object reveals: {}",
        tap.results
            .latest()
            .and_then(|r| r.value().cloned())
            .unwrap()
    );

    // 3. A plain scan: slide a finger from the top to the bottom of the object
    //    over two seconds. Every touch reveals the value it lands on.
    kernel.set_action(object, TouchAction::Scan)?;
    let view = kernel.view(object)?;
    let mut synthesizer = GestureSynthesizer::new(60.0);
    let slide = synthesizer.slide_down(&view, 2.0);
    let outcome = kernel.run_trace(object, &slide)?;
    println!(
        "scan slide: {} entries returned, {} rows touched, mean per-touch cost {} ns",
        outcome.stats.entries_returned,
        outcome.stats.rows_touched,
        outcome.stats.mean_touch_nanos()
    );

    // 4. Interactive summaries: the same slide now returns the average of a
    //    small window around each touched tuple, so each touch inspects more
    //    data and local patterns become visible.
    kernel.set_action(
        object,
        TouchAction::Summary {
            half_window: Some(5),
            kind: AggregateKind::Avg,
        },
    )?;
    let outcome = kernel.run_trace(object, &synthesizer.slide_down(&view, 2.0))?;
    println!(
        "summary slide: {} summaries returned (sample levels used: {:?})",
        outcome.stats.entries_returned, outcome.stats.sample_level_usage
    );

    // 5. Zoom in with a pinch gesture and slide again: the object is bigger, so
    //    the same gesture addresses the data at a finer granularity.
    let pinch = synthesizer.pinch(&view, 2.0, 0.4);
    kernel.run_trace(object, &pinch)?;
    let zoomed_view = kernel.view(object)?;
    println!(
        "after zoom-in the object is {} tall (was {})",
        zoomed_view.size.height, view.size.height
    );
    let outcome = kernel.run_trace(object, &synthesizer.slide_down(&zoomed_view, 2.0))?;
    println!(
        "zoomed summary slide: {} summaries returned",
        outcome.stats.entries_returned
    );

    // 6. A running aggregate: the final value approximates the column average
    //    without ever reading the whole column.
    kernel.set_action(object, TouchAction::Aggregate(AggregateKind::Avg))?;
    let outcome = kernel.run_trace(object, &synthesizer.slide_down(&zoomed_view, 1.0))?;
    println!(
        "running average after one slide: {:.1} (touched {} of 1,000,000 rows)",
        outcome.final_aggregate.unwrap_or(f64::NAN),
        outcome.stats.rows_touched
    );
    Ok(())
}
