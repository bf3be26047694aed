//! Schema and storage-layout gestures (Section 2.8).
//!
//! dbTouch lets the user reshape the physical design interactively: rotating a
//! table flips it between a row-oriented and a column-oriented layout, dragging
//! a column out of a "fat" table turns it into its own lean object, and
//! independent columns can be grouped back into a table placeholder. This
//! example performs each of those gestures on a small sales table and shows how
//! the catalog and layouts evolve. (The remote-processing split of Section 4
//! is `examples/remote_exploration.rs`.)
//!
//! Run with:
//! ```text
//! cargo run --release --example layout_gestures
//! ```

use dbtouch::core::kernel::TouchAction;
use dbtouch::prelude::*;

fn main() -> Result<()> {
    let mut kernel = Kernel::new(KernelConfig::default());

    // A small sales table rendered as one fat rectangle.
    let rows = 200_000usize;
    let sales = Table::from_columns(
        "sales",
        vec![
            Column::from_i64("order_id", (0..rows as i64).collect()),
            Column::from_f64(
                "amount",
                (0..rows).map(|i| (i % 500) as f64 / 10.0).collect(),
            ),
            Column::from_i64("region", (0..rows as i64).map(|i| i % 8).collect()),
        ],
    )?;
    let table = kernel.load_table(sales, SizeCm::new(6.0, 10.0))?;
    println!("loaded table; catalog = {:?}", kernel.catalog_names());
    println!("initial layout: {}", kernel.layout(table)?);

    // Rotate gesture: the physical design flips to a row-store and the object
    // now lies horizontally on screen.
    let mut synthesizer = GestureSynthesizer::new(60.0);
    let view = kernel.view(table)?;
    let rotate = synthesizer.rotate(&view, true, 0.5);
    kernel.run_trace(table, &rotate)?;
    println!(
        "after rotate gesture: layout = {}, orientation = {:?}",
        kernel.layout(table)?,
        kernel.view(table)?.orientation
    );

    // A tap on the rotated table reveals a whole tuple.
    kernel.set_action(table, TouchAction::Tuple)?;
    let tap = kernel.tap(table, 0.37)?;
    println!(
        "tap reveals the tuple {:?}",
        tap.results
            .latest()
            .map(|r| r.values.clone())
            .unwrap_or_default()
    );

    // Drag the `amount` column out of the fat table: it becomes its own lean
    // object the analyst can slide over without paying for the other columns.
    let amount = kernel.drag_column_out(table, "amount", SizeCm::new(2.0, 10.0))?;
    println!(
        "after dragging `amount` out: catalog = {:?}, table now has {} attributes",
        kernel.catalog_names(),
        kernel.view(table)?.attribute_count
    );
    kernel.set_action(
        amount,
        TouchAction::Aggregate(dbtouch::core::operators::aggregate::AggregateKind::Avg),
    )?;
    let view = kernel.view(amount)?;
    let outcome = kernel.run_trace(amount, &synthesizer.slide_down(&view, 1.0))?;
    println!(
        "sliding over the standalone `amount` column: running avg ≈ {:.2} from {} touched rows",
        outcome.final_aggregate.unwrap_or(f64::NAN),
        outcome.stats.rows_touched
    );

    // Group standalone columns into a new table placeholder.
    let order_ids = kernel.load_column(
        "order_id_copy",
        (0..rows as i64).collect(),
        SizeCm::new(2.0, 10.0),
    )?;
    let grouped = kernel.group_into_table(
        "amount_by_order",
        &[order_ids, amount],
        SizeCm::new(4.0, 10.0),
    )?;
    println!(
        "grouped columns into `{}` with {} attributes",
        kernel.catalog_names().last().cloned().unwrap_or_default(),
        kernel.view(grouped)?.attribute_count
    );
    Ok(())
}
