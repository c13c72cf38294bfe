//! The workloads, their set-up, the engine call each one times, and the
//! output check behind `success_rate`.

use compass_cocomac::macaque_network;
use compass_comm::{TransportMetrics, World, WorldConfig};
use compass_pcc::{compile_with_placement, CompileStats, CoreObject, Placement};
use compass_sim::{
    run_durable, run_rank, run_rank_with, Backend, DurabilityPolicy, EngineConfig, NetworkModel,
    Partition, RankCheckpoint, RankReport, RunOptions, RunReport, SoloSimulation,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tn_core::CoreConfig;

/// Seed of the pinned reference outputs.
pub const DEFAULT_SEED: u64 = 2012;

/// Outputs a run must reproduce exactly: the check behind `success_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Total fires across ranks.
    pub fires: u64,
    /// FNV-1a digest of every rank's `fires_per_core`, in rank order.
    pub per_core_digest: u64,
    /// Local spikes, remote spikes and aggregated messages.
    pub traffic: (u64, u64, u64),
}

impl Fingerprint {
    pub fn of(ranks: &[RankReport]) -> Fingerprint {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for r in ranks {
            for f in &r.fires_per_core {
                for b in f.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        let sum = |f: fn(&RankReport) -> u64| ranks.iter().map(f).sum::<u64>();
        Fingerprint {
            fires: sum(|r| r.fires),
            per_core_digest: h,
            traffic: (
                sum(|r| r.spikes_local),
                sum(|r| r.spikes_remote),
                sum(|r| r.messages_sent),
            ),
        }
    }

    /// The lifetime core counters alone: all a resumed job can be checked
    /// on, since its engine counters cover only the resumed segment.
    pub fn cores(&self) -> (u64, u64) {
        (self.fires, self.per_core_digest)
    }
}

/// One benchmark workload: the merged 102-region CoCoMac macaque network,
/// compiled in situ by the parallel compiler onto `cores` cores.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload is in the benchmark: the layer it leans on or
    /// bypasses.
    pub why: &'static str,
    pub cores: u64,
    pub world: WorldConfig,
    /// Ticks per simulation call; a timed run repeats the call.
    pub ticks: u32,
    /// Outputs at [`DEFAULT_SEED`], recorded from an oracle-checked run.
    pub pinned: Fingerprint,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cocomac-1k-serial",
        why: "plain single-threaded baseline: the Neuron sweep takes most of the time, \
              the Synapse fold the rest; comm does no work",
        cores: 1024,
        world: WorldConfig {
            ranks: 1,
            threads_per_rank: 1,
        },
        ticks: 200,
        pinned: Fingerprint {
            fires: 411_910,
            per_core_digest: 0x962c77e9bc0b0537,
            traffic: (411_910, 0, 0),
        },
    },
    Workload {
        name: "cocomac-2k-mpi",
        why: "same kernels plus white-matter traffic between 2 ranks: aggregated messages \
              and one Reduce-scatter per tick, mostly waiting for the slower peer",
        cores: 2048,
        world: WorldConfig {
            ranks: 2,
            threads_per_rank: 1,
        },
        ticks: 200,
        pinned: Fingerprint {
            fires: 819_431,
            per_core_digest: 0xd6d9967b931470aa,
            traffic: (617_733, 201_698, 372),
        },
    },
    // Not in BENCHMARK.json: its two lockstep threads fill a 2-CPU host, so
    // any other load there stalls one of them; over ten seeds its
    // ticks_per_s spread by 9-21% (IQR/median), too wide to gate on.
    // `--all` still runs it.
    Workload {
        name: "cocomac-1k-threads",
        why: "1 rank x 2 threads: the only workload where the thread team, cross-thread \
              inbox routing and the receive critical section do work (Fig. 6 axis)",
        cores: 1024,
        world: WorldConfig {
            ranks: 1,
            threads_per_rank: 2,
        },
        ticks: 800,
        pinned: Fingerprint {
            fires: 1_856_732,
            per_core_digest: 0xb7a470bb2701bfcc,
            traffic: (1_856_732, 0, 0),
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built and compiled model, split the way the engine runs it.
pub struct Prepared {
    pub partition: Partition,
    /// Each rank's core configurations, in global-id order.
    pub per_rank: Vec<Vec<CoreConfig>>,
    /// The slowest rank's compile statistics.
    pub compile: CompileStats,
    /// `macaque_network`.
    pub build: Duration,
    /// In-situ compile, to the slowest rank's post-compile barrier.
    pub compile_wall: Duration,
}

impl Prepared {
    /// Set-up time: build plus compile, everything before the first tick.
    pub fn setup(&self) -> Duration {
        self.build + self.compile_wall
    }

    /// The whole model, as one explicit network.
    pub fn model(&self) -> NetworkModel {
        NetworkModel {
            cores: self.per_rank.concat(),
            initial_deliveries: Vec::new(),
        }
    }
}

/// The result of one simulation call.
pub struct Outcome {
    pub ranks: Vec<RankReport>,
    /// Point-to-point messages and bytes of the call.
    pub messages: u64,
    pub bytes: u64,
    /// Host time of the call, set-up excluded.
    pub wall: Duration,
}

impl Workload {
    pub fn engine(&self, ticks: u32) -> EngineConfig {
        EngineConfig::new(ticks, Backend::Mpi)
    }

    /// Ranks × threads exceed the host's CPUs.
    pub fn oversubscribed(&self, cpus: usize) -> bool {
        self.world.total_threads() > cpus
    }

    /// Builds and compiles the model for `seed`, timing the compile as
    /// `compass_bench::cocomac_run_placed` does.
    pub fn prepare(&self, seed: u64) -> Prepared {
        let t0 = Instant::now();
        let object = macaque_network(seed).object;
        let build = t0.elapsed();
        Prepared {
            build,
            ..self.compile(&object)
        }
    }

    /// Compiles the description in situ on every rank; `build` is left
    /// zero.
    pub fn compile(&self, object: &CoreObject) -> Prepared {
        let t0 = Instant::now();
        let mut out = World::run(self.world, |ctx| {
            let compiled = compile_with_placement(ctx, object, self.cores, Placement::default())
                .expect("CoCoMac model is realizable");
            ctx.comm().barrier();
            (compiled, Instant::now())
        });
        let done = out.iter().map(|o| o.1).max().expect("nonempty world");
        let slowest = out
            .iter()
            .map(|o| o.0.stats)
            .max_by_key(CompileStats::total_time)
            .expect("nonempty world");
        Prepared {
            partition: out[0].0.plan.partition.clone(),
            per_rank: out.drain(..).map(|o| o.0.configs).collect(),
            compile: slowest,
            build: Duration::ZERO,
            compile_wall: done.duration_since(t0),
        }
    }

    /// Runs the engine once over the prepared model.
    pub fn run_engine(&self, p: &Prepared, cfg: &EngineConfig) -> Outcome {
        let slots: Vec<Mutex<Option<Vec<CoreConfig>>>> = p
            .per_rank
            .iter()
            .map(|c| Mutex::new(Some(c.clone())))
            .collect();
        let metrics = Arc::new(TransportMetrics::new());
        let t0 = Instant::now();
        let ranks = World::run_with_metrics(self.world, Arc::clone(&metrics), |ctx| {
            let configs = slots[ctx.rank()]
                .lock()
                .expect("slot lock poisoned")
                .take()
                .expect("each rank takes its slot once");
            run_rank(ctx, &p.partition, configs, &[], cfg)
        });
        let wall = t0.elapsed();
        let transport = metrics.snapshot();
        Outcome {
            ranks,
            messages: transport.p2p_messages,
            bytes: transport.p2p_bytes,
            wall,
        }
    }

    /// One `run_durable` call of `ticks` ticks with the default policy
    /// (a generation every 4 ticks, fsync on) on `store`.
    pub fn run_durable(
        &self,
        model: &NetworkModel,
        ticks: u32,
        store: &Path,
    ) -> Result<Vec<RankReport>, String> {
        let policy = DurabilityPolicy::new(store);
        run_durable(
            model,
            self.world,
            &self.engine(ticks),
            policy,
            None,
            None,
            None,
        )
        .map(|r| r.ranks)
        .map_err(|e| e.to_string())
    }

    /// The outputs every timed call must reproduce. At [`DEFAULT_SEED`]
    /// they are pinned; for any other seed they come from one
    /// trace-recording engine run whose spike trace must match the
    /// `SoloSimulation` oracle's digest on the same model.
    pub fn reference(&self, p: &Prepared, seed: u64) -> Result<Fingerprint, String> {
        if seed == DEFAULT_SEED {
            return Ok(self.pinned);
        }
        let cfg = EngineConfig {
            record_trace: true,
            ..self.engine(self.ticks)
        };
        let engine = RunReport {
            ranks: self.run_engine(p, &cfg).ranks,
            ..RunReport::default()
        };
        let oracle = solo_digest(&p.model(), self.ticks)?;
        let got = engine.trace_digest();
        if got != oracle {
            return Err(format!(
                "engine trace digest {got:#018x} != SoloSimulation oracle {oracle:#018x}"
            ));
        }
        Ok(Fingerprint::of(&engine.ranks))
    }

    /// Each rank's checkpoint of the freshly instantiated model: real
    /// payloads of the workload's per-rank size, for the store probes.
    pub fn rank_checkpoints(&self, p: &Prepared) -> Vec<RankCheckpoint> {
        let opts = RunOptions {
            checkpoint_at: Some(0),
            ..RunOptions::default()
        };
        World::run(self.world, |ctx| {
            let configs = p.per_rank[ctx.rank()].clone();
            run_rank_with(ctx, &p.partition, configs, &[], &self.engine(1), &opts)
                .checkpoint
                .expect("checkpoint_at 0 is inside a 1-tick run")
        })
    }
}

/// Digest of the `SoloSimulation` oracle's spike trace over `ticks` ticks,
/// canonicalised exactly as `RunReport::trace_digest` does.
fn solo_digest(model: &NetworkModel, ticks: u32) -> Result<u64, String> {
    let mut solo = SoloSimulation::new(model).map_err(|e| e.to_string())?;
    let mut trace = Vec::new();
    for _ in 0..ticks {
        trace.extend(solo.step());
    }
    let report = RunReport {
        ranks: vec![RankReport {
            trace,
            ..RankReport::default()
        }],
        ..RunReport::default()
    };
    Ok(report.trace_digest())
}

/// A fresh, empty directory that is removed when dropped.
pub struct FreshDir(PathBuf);

impl FreshDir {
    pub fn new(parent: &Path, prefix: &str) -> Result<FreshDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = parent.join(format!("{prefix}-{}-{seq}", std::process::id()));
        // A directory left by a killed process with the same pid would be
        // resumed from: start from nothing.
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(FreshDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for FreshDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
