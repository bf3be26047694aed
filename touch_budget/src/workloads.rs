//! Set-up of the four workloads: data, catalog, plans — all from the seed.
//!
//! The server only ever receives the generated inputs: a catalog and, over
//! the wire, the traces of the plans built here.

use crate::spec::GESTURES_PER_SESSION;
use crate::spec::{Kind, Profile, WorkloadSpec, CHURN_ROWS, COLD_HALF_WINDOW, PAGE_SIZE};
use dbtouch_core::catalog::SharedCatalog;
use dbtouch_core::kernel::ObjectId;
use dbtouch_net::NetServer;
use dbtouch_server::ServerConfig;
use dbtouch_storage::column::Column;
use dbtouch_storage::page::rows_per_page;
use dbtouch_storage::table::Table;
use dbtouch_types::{KernelConfig, Result, SizeCm};
use dbtouch_workload::concurrent::{
    plan_explorers, plan_hot_object, plan_segment_sweep, run_sequential, segment_sweep_config,
    ExplorerPlan,
};
use dbtouch_workload::{Scenario, MAX_CHURN_MUTATORS};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows per unaligned scan segment on the sweeps (not a multiple of the
/// 4096-row zone block, so segments are scanned, never index-answered).
const SWEEP_SEGMENT_ROWS: u64 = 50_000;

/// Span trees the traced run keeps: enough for a median per span name,
/// few enough that the per-`RunTrace` admission scrape (which copies them)
/// stays close to the shipped 64.
const TRACED_RETAINED_TREES: usize = 256;

/// The benchmark's scratch directory, inside the checkout it was built in.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh scratch directory under [`out_dir`], unique per process and call.
fn scratch_dir(tag: &str) -> Result<PathBuf> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "tmp-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| dbtouch_types::DbTouchError::Io(format!("create {}: {e}", dir.display())))?;
    Ok(dir)
}

/// One set-up workload: a catalog ready to serve and the plans to drive.
pub struct Env {
    pub spec: &'static WorkloadSpec,
    /// The seed data and plans came from.
    pub seed: u64,
    pub catalog: Arc<SharedCatalog>,
    /// The explored object.
    pub object: ObjectId,
    /// The churn table of `mixed_restructure`.
    pub churn_table: Option<ObjectId>,
    /// The plan pool; session `s` of connection `c` runs
    /// `plans[plan_index(c, s)]`.
    pub plans: Vec<ExplorerPlan>,
    /// RLE and dictionary pages the persist wrote (0, 0 when nothing packed).
    pub encoded_pages: (u64, u64),
    /// Removed on drop.
    dir: Option<PathBuf>,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The churn table of `workload::churn`: one key column plus one column per
/// potential mutator. (`churn_catalog` builds the same table, but only into a
/// fresh memory-only catalog; this workload needs it in an attached one.)
fn churn_table(rows: usize) -> Result<Table> {
    let rows = rows as i64;
    let mut columns = vec![Column::from_i64("churn_key", (0..rows).collect())];
    for m in 0..MAX_CHURN_MUTATORS as i64 {
        columns.push(Column::from_i64(
            format!("churn_c{m}"),
            (0..rows).map(|i| i * (m + 1)).collect(),
        ));
    }
    Table::from_columns("churn", columns)
}

fn traced_config(config: KernelConfig, traced: bool) -> KernelConfig {
    if traced {
        config
            .with_trace_head_sample_every(1)
            .with_trace_retained_capacity(TRACED_RETAINED_TREES)
    } else {
        config
    }
}

impl Env {
    /// Generate data and plans from `seed` and bring the catalog up.
    /// `traced` turns the server's head sampling to every trace; everything
    /// else is the shipped default or the workload's pinned setting.
    pub fn build(
        spec: &'static WorkloadSpec,
        seed: u64,
        profile: &Profile,
        traced: bool,
    ) -> Result<Env> {
        let rows = (spec.rows / profile.row_divisor).max(20_000);
        let size = SizeCm::new(2.0, 12.0);
        // (catalog, explored object, churn table, encoded pages, scratch dir)
        let (catalog, object, churn_table, encoded_pages, dir) = match spec.kind {
            Kind::HotDashboard => {
                let scenario = Scenario::sky_survey(rows, seed);
                let catalog = Arc::new(SharedCatalog::new(traced_config(
                    KernelConfig::default(),
                    traced,
                )));
                let object = catalog.load_column_typed(scenario.signal_column(), size)?;
                (catalog, object, None, (0, 0), None)
            }
            Kind::BandedSweep | Kind::ColdRawSweep => {
                let scenario = Scenario::monitoring_stream(rows, seed);
                let cold = spec.kind == Kind::ColdRawSweep;
                let column = if cold {
                    scenario.signal_column_i64()
                } else {
                    scenario.signal_column_banded(6)
                };
                let config = traced_config(
                    segment_sweep_config(spec.scan_parallelism, SWEEP_SEGMENT_ROWS),
                    traced,
                );
                let dir = scratch_dir(spec.name)?;
                // Persist, drop the writer, reopen: every read then goes
                // through the buffer pool.
                let encoded_pages = {
                    let writer = SharedCatalog::open(&dir, config.clone())?;
                    writer.load_column_typed(column.clone(), size)?;
                    let metrics = writer.telemetry().snapshot();
                    (
                        metrics.scalar("encoding.rle_pages").unwrap_or(0),
                        metrics.scalar("encoding.dict_pages").unwrap_or(0),
                    )
                };
                let config = if cold {
                    // 10% of the pages of the column's own (level 0) extent.
                    let extent_pages = (rows as u64).div_ceil(rows_per_page(PAGE_SIZE, 8));
                    config.with_buffer_pool_pages((extent_pages / 10).max(8) as usize)
                } else {
                    config
                };
                let catalog = Arc::new(SharedCatalog::open(&dir, config)?);
                let object = catalog.object_id(column.name())?;
                (catalog, object, None, encoded_pages, Some(dir))
            }
            Kind::MixedRestructure => {
                let scenario = Scenario::sky_survey(rows, seed);
                let dir = scratch_dir(spec.name)?;
                let catalog = Arc::new(SharedCatalog::open(
                    &dir,
                    traced_config(KernelConfig::default(), traced),
                )?);
                let object = catalog.load_column_typed(scenario.signal_column(), size)?;
                let churn = catalog.load_table(churn_table(CHURN_ROWS)?, SizeCm::new(8.0, 10.0))?;
                (catalog, object, Some(churn), (0, 0), Some(dir))
            }
        };
        let mut env = Env {
            spec,
            seed,
            catalog,
            object,
            churn_table,
            plans: Vec::new(),
            encoded_pages,
            dir,
        };
        env.plans = env.plan(rows as u64, profile.plan_pool)?;
        Ok(env)
    }

    fn plan(&self, rows: u64, pool: usize) -> Result<Vec<ExplorerPlan>> {
        let (catalog, object, seed) = (&self.catalog, self.object, self.seed);
        let plan_seed = |i: usize| seed.wrapping_mul(1_000).wrapping_add(i as u64);
        match self.spec.kind {
            // Each plan is `plan_hot_object`'s: a pool of 4 slides cycled
            // twice, so the same windows recur within and across sessions.
            Kind::HotDashboard => (0..pool)
                .map(|i| {
                    plan_hot_object(catalog, object, 1, GESTURES_PER_SESSION, plan_seed(i))
                        .map(|mut plans| plans.remove(0))
                })
                .collect(),
            Kind::BandedSweep | Kind::ColdRawSweep => {
                let half_window = if self.spec.kind == Kind::ColdRawSweep {
                    COLD_HALF_WINDOW
                } else {
                    rows / 8
                };
                (0..pool)
                    .map(|i| {
                        plan_segment_sweep(
                            catalog,
                            object,
                            GESTURES_PER_SESSION,
                            half_window,
                            plan_seed(i),
                        )
                    })
                    .collect()
            }
            // Plan i runs action i % 4.
            Kind::MixedRestructure => {
                plan_explorers(catalog, object, pool, GESTURES_PER_SESSION, seed)
            }
        }
    }

    /// Which plan session number `session` of connection `connection` runs.
    /// The stride keeps two connections off the same action at the same
    /// session number, and lets each see all four actions.
    pub fn plan_index(&self, connection: usize, session: u64) -> usize {
        let pool = self.plans.len();
        (session as usize + connection * (pool / 2 + 1)) % pool
    }

    /// The digests a correct server must produce: the sequential in-process
    /// `Kernel` replay of each plan (for `mixed_restructure` the churn-free
    /// replay — the churn table is disjoint from the explored column).
    pub fn expected_digests(&self) -> Result<Vec<u64>> {
        run_sequential(&self.catalog, self.object, &self.plans)
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig::with_workers(self.spec.workers).with_catalog(Arc::clone(&self.catalog))
    }

    /// Serve the catalog on a loopback port the OS picks.
    pub fn serve_tcp(&self) -> Result<NetServer> {
        NetServer::serve(self.server_config().with_listen_addr("127.0.0.1:0"))
    }

    /// Mean touch samples per gesture over the plan pool.
    pub fn touches_per_gesture(&self) -> f64 {
        let touches: u64 = self.plans.iter().map(ExplorerPlan::touches).sum();
        touches as f64 / (self.plans.len() * GESTURES_PER_SESSION).max(1) as f64
    }
}
