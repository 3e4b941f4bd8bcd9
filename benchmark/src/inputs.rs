//! Input generation: everything the program under test sees is a pure
//! function of `(seed, workload)` — the database (fixed per workload), the
//! query instances, and (for `ingest_churn`) the write schedule.

use std::sync::Arc;

use rand::RngExt;
use reopt_common::rng::derive_rng;
use reopt_common::Stopwatch;
use reopt_plan::Query;
use reopt_sampling::SampleConfig;
use reopt_storage::{Database, Table, Value};
use reopt_workloads::ott::{self, OttConfig};
use reopt_workloads::tpch::{self, TpchConfig};

/// The five workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TpchCold,
    TpchWarm,
    OttCold,
    OttMidquery,
    IngestChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::TpchCold,
        Workload::TpchWarm,
        Workload::OttCold,
        Workload::OttMidquery,
        Workload::IngestChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpchCold => "tpch_cold",
            Workload::TpchWarm => "tpch_warm",
            Workload::OttCold => "ott_cold",
            Workload::OttMidquery => "ott_midquery",
            Workload::IngestChurn => "ingest_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// How a workload obtains its service (see README "Workloads").
    pub fn regime(self) -> Regime {
        match self {
            Workload::TpchCold => Regime::ColdPerPass,
            Workload::TpchWarm | Workload::IngestChurn => Regime::Warm,
            Workload::OttCold | Workload::OttMidquery => Regime::ColdPerQuery,
        }
    }
}

/// Which service a read op goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// One warmed service for the whole run: every op is a `WarmHit`.
    Warm,
    /// A fresh service per pass over distinct templates: every op is a
    /// `ColdMiss`, dry-run work pooled across the pass's templates.
    ColdPerPass,
    /// A fresh service per query. OTT queries of one chain length share a
    /// template fingerprint (literals are parameterized out), so a service
    /// per pass would re-optimize three templates and warm-hit the rest.
    ColdPerQuery,
}

/// Input sizes. `full()` is what the benchmark measures; `tiny()` keeps the
/// crate's own tests fast in a debug build.
#[derive(Debug, Clone)]
pub struct Sizing {
    pub tpch_scale: f64,
    /// Literal instances generated per TPC-H template.
    pub instances_per_template: usize,
    pub ott_rows_per_value: usize,
    /// Rows per benign `orders` batch.
    pub benign_rows: usize,
    /// A storm batch bulk-loads this share of its table's current rows.
    pub storm_share: f64,
    /// Write-schedule length in batches. The schedule is drawn
    /// sequentially, so a shorter one is a prefix of a longer one. Storms
    /// grow their tables geometrically: keep this under two hundred.
    pub schedule_len: usize,
}

impl Sizing {
    pub fn full() -> Self {
        Sizing {
            tpch_scale: 0.1,
            instances_per_template: 10,
            ott_rows_per_value: 20,
            benign_rows: 1000,
            storm_share: 0.3,
            schedule_len: 150,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Sizing {
            tpch_scale: 0.004,
            instances_per_template: 2,
            ott_rows_per_value: 8,
            benign_rows: 40,
            storm_share: 0.3,
            schedule_len: 30,
        }
    }
}

/// One query instance and what the correctness gate needs to know about it.
#[derive(Debug, Clone)]
pub struct QueryInstance {
    /// Template name (`q8`, `ott4`, ...): ops of one template share a plan.
    pub template: String,
    /// Correlated-predicate template the native optimizer misestimates.
    pub hard: bool,
    pub query: Query,
    /// OTT only: the selection constants (input to `true_query_size`).
    pub ott_constants: Option<Vec<i64>>,
}

/// One `append_rows` call of the write schedule.
#[derive(Debug, Clone)]
pub struct Batch {
    pub table: &'static str,
    pub rows: Vec<Vec<Value>>,
}

/// Everything one run feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    pub db: Arc<Database>,
    pub sample: SampleConfig,
    pub mid_query: bool,
    /// Template-major: instance `i` of template `t` is at
    /// `t * instances + i`.
    pub queries: Vec<QueryInstance>,
    /// The seed-drawn order (a permutation of `queries`' indexes) in which
    /// the closed loop's ops arrive within a pass.
    pub arrival: Vec<usize>,
    /// Instances per template in `queries`.
    pub instances: usize,
    pub ott: Option<OttConfig>,
    /// `ingest_churn` only.
    pub batches: Vec<Batch>,
    pub datagen_s: f64,
}

/// Period of the write schedule: nine benign batches, then one storm.
pub const SCHEDULE_PERIOD: usize = 10;
/// Storms rotate over these small dimension tables, so a 30 % bulk load
/// stays a few thousand rows and the surgical (per-table) reaction shows.
pub const STORM_TABLES: [&str; 3] = ["customer", "part", "supplier"];
/// §5.3 suites `(n, m)`, all empty, plus the two non-empty queries of
/// `(3, 3)` so that the gate also sees rows. (The non-empty `(4, 4)` pair
/// returns 160 k rows each and alone took a third of `ott_cold`'s time into
/// the executor, which that workload exists to keep out of the way.)
const OTT_SUITES: [(usize, usize); 5] = [(4, 2), (5, 3), (6, 3), (6, 4), (3, 3)];

/// The data set and the pool of query instances are part of the benchmark's
/// definition, like TPC-H's own data and substitution parameters: their
/// generator seed is fixed, and `--seed` draws what is asked of them — the
/// order in which the instances arrive and the rows of the write schedule.
/// (Zipf-skewed keys, a 5 % sample and range literals make the cost of a
/// template depend on the draw; with data and literals seeded per run, two
/// seeds differed by 15–25 %, more than any bound.)
pub const DATA_SEED: u64 = 0x5167_d0d0;

/// A seed-drawn permutation of `0..n`.
fn arrival_order(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = derive_rng(seed, "arrival-order");
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

pub fn generate(workload: Workload, seed: u64, sizing: &Sizing) -> Inputs {
    let t0 = Stopwatch::start();
    let mut inputs = match workload {
        Workload::TpchCold | Workload::TpchWarm | Workload::IngestChurn => {
            tpch_inputs(workload, seed, sizing)
        }
        Workload::OttCold | Workload::OttMidquery => ott_inputs(workload, seed, sizing),
    };
    inputs.datagen_s = t0.elapsed().as_secs_f64();
    inputs
}

fn tpch_inputs(workload: Workload, seed: u64, sizing: &Sizing) -> Inputs {
    let config = TpchConfig {
        scale: sizing.tpch_scale,
        zipf_z: 1.0,
        seed: DATA_SEED,
        ..TpchConfig::default()
    };
    let db = tpch::build_tpch_database(&config).expect("TPC-H generation");
    let instances = sizing.instances_per_template;
    let mut queries = Vec::new();
    for name in tpch::all_template_names() {
        for i in 0..instances {
            let mut rng = tpch::gen::instance_rng(DATA_SEED, name, i as u64);
            queries.push(QueryInstance {
                template: (*name).to_string(),
                hard: tpch::is_hard_template(name),
                query: tpch::instantiate(&db, name, &mut rng).expect("template instantiation"),
                ott_constants: None,
            });
        }
    }
    let batches = if workload == Workload::IngestChurn {
        write_schedule(&db, seed, sizing)
    } else {
        Vec::new()
    };
    Inputs {
        workload,
        db: Arc::new(db),
        sample: SampleConfig::default(),
        mid_query: false,
        arrival: arrival_order(seed, queries.len()),
        queries,
        instances,
        ott: None,
        batches,
        datagen_s: 0.0,
    }
}

fn ott_inputs(workload: Workload, seed: u64, sizing: &Sizing) -> Inputs {
    let config = OttConfig {
        rows_per_value: sizing.ott_rows_per_value,
        seed: DATA_SEED,
        ..OttConfig::default()
    };
    let db = ott::build_ott_database(&config).expect("OTT generation");
    let mut queries = Vec::new();
    for (n, m) in OTT_SUITES {
        for constants in ott::ott_query_suite(n, m) {
            queries.push(QueryInstance {
                template: format!("ott{n}"),
                hard: true,
                query: ott::ott_query(&db, &constants).expect("OTT query"),
                ott_constants: Some(constants),
            });
        }
    }
    // ott_cold samples enough rows per value group for the dry run to tell
    // empty joins from non-empty ones; ott_midquery starves it to the
    // paper's 5 % (about one row per group), so the loop accepts weak plans
    // and the mid-query path has something to repair.
    let (ratio, mid_query) = match workload {
        Workload::OttMidquery => (0.05, true),
        _ => (ott::recommended_sample_ratio(&config), false),
    };
    Inputs {
        workload,
        db: Arc::new(db),
        sample: SampleConfig {
            ratio,
            ..SampleConfig::default()
        },
        mid_query,
        arrival: arrival_order(seed, queries.len()),
        queries,
        instances: 1,
        ott: Some(config),
        batches: Vec::new(),
        datagen_s: 0.0,
    }
}

/// `n` rows of `table` drawn uniformly with replacement.
fn resample(table: &Table, n: usize, rng: &mut reopt_common::rng::Rng) -> Vec<Vec<Value>> {
    (0..n)
        .map(|_| {
            let row = rng.random_range(0..table.row_count());
            table.columns().iter().map(|c| c.value(row)).collect()
        })
        .collect()
}

/// The write schedule. Benign batches resample `orders` (each moves its
/// drift score by `benign_rows / rows`, far under the 0.25 threshold, though
/// the growth accumulates and crosses it now and then); every tenth batch
/// is a storm that bulk-loads `storm_share` of one small table, crossing
/// the threshold at once.
fn write_schedule(db: &Database, seed: u64, sizing: &Sizing) -> Vec<Batch> {
    let mut rng = derive_rng(seed, "ingest:schedule");
    let orders = db.table_by_name("orders").expect("orders table");
    let mut storm_rows: Vec<usize> = STORM_TABLES
        .iter()
        .map(|t| db.table_by_name(t).expect("storm table").row_count())
        .collect();
    let mut storms = 0usize;
    (0..sizing.schedule_len)
        .map(|i| {
            if i % SCHEDULE_PERIOD == SCHEDULE_PERIOD - 1 {
                let slot = storms % STORM_TABLES.len();
                storms += 1;
                let n = (storm_rows[slot] as f64 * sizing.storm_share).ceil() as usize;
                storm_rows[slot] += n;
                let table = db.table_by_name(STORM_TABLES[slot]).expect("storm table");
                Batch {
                    table: STORM_TABLES[slot],
                    rows: resample(table, n, &mut rng),
                }
            } else {
                Batch {
                    table: "orders",
                    rows: resample(orders, sizing.benign_rows, &mut rng),
                }
            }
        })
        .collect()
}

#[cfg(test)]
impl Inputs {
    /// Hash of everything generated — what the seed-discipline test compares.
    pub fn digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = reopt_common::hash::FxHasher::default();
        for t in self.db.tables() {
            t.name().hash(&mut h);
            for c in t.columns() {
                c.data().hash(&mut h);
            }
        }
        for q in &self.queries {
            q.template.hash(&mut h);
            format!("{:?}", q.query).hash(&mut h);
        }
        self.arrival.hash(&mut h);
        for b in &self.batches {
            b.table.hash(&mut h);
            format!("{:?}", b.rows).hash(&mut h);
        }
        self.sample.ratio.to_bits().hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_seed_and_workload() {
        let sizing = Sizing::tiny();
        for workload in Workload::ALL {
            let digest = generate(workload, 7, &sizing).digest();
            assert_eq!(
                digest,
                generate(workload, 7, &sizing).digest(),
                "{}",
                workload.name()
            );
            assert_ne!(
                digest,
                generate(workload, 8, &sizing).digest(),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn the_write_schedule_storms_every_tenth_batch() {
        let inputs = generate(Workload::IngestChurn, 7, &Sizing::tiny());
        assert_eq!(inputs.batches.len(), Sizing::tiny().schedule_len);
        for (i, b) in inputs.batches.iter().enumerate() {
            let storm = i % SCHEDULE_PERIOD == SCHEDULE_PERIOD - 1;
            assert_eq!(storm, b.table != "orders");
            assert_eq!(storm, b.rows.len() != Sizing::tiny().benign_rows);
        }
    }
}
