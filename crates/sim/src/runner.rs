//! Whole-world drivers.
//!
//! [`run`] wraps [`compass_comm::World::run`] around the per-rank engine:
//! it partitions an explicit [`NetworkModel`] uniformly over the configured
//! ranks, hands each rank its slice of core configurations, executes the
//! main loop, and folds the per-rank reports plus transport metrics into a
//! [`RunReport`]. The Parallel Compass Compiler path bypasses this and
//! calls [`crate::engine::run_rank`] directly inside its own world, exactly
//! as the paper's in-situ compile-then-simulate flow does.
//!
//! The resilient drivers — [`run_recovering`] (rollback over a reliable
//! layer), [`run_surviving`] (a rank crash survived by buddy adoption),
//! [`run_durable`] (restart from an on-disk store) and [`run_elastic`]
//! (ranks joining and leaving at tick boundaries) — are thin wrappers that
//! check their plans and describe one job. A single per-rank segment loop
//! runs every job: it executes a segment of the engine, and matches on how
//! it ended. A finished segment either ends the run or reaches an elastic
//! boundary, where the members migrate cores and start the next segment.
//! A death verdict makes the victim's buddy adopt its cores, and the
//! segment replays from the common boundary in the degraded view. Every
//! segment is seeded with the rank's recorded history, so one report fold
//! covers them all.

use crate::checkpoint::{MigrationEnvelope, MigrationRun, RankCheckpoint, ReplicaPayload};
use crate::engine::{run_rank, run_rank_view, EngineConfig, RunOptions};
use crate::model::{ModelError, NetworkModel};
use crate::partition::{Partition, SurvivorView};
use crate::recovery::RecoveryPolicy;
use crate::stats::{RankReport, RunReport};
use crate::store::{CheckpointStore, DurabilityPolicy, StoreError};
use compass_comm::{
    CrashPlan, FaultInjector, FaultPlan, Rank, RankCtx, ReliableConfig, ReliableWorld,
    TransportMetrics, World, WorldConfig,
};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tn_core::{CoreConfig, CORE_SNAPSHOT_BYTES};

/// Simulates `model` on a world of shape `world` with engine options `cfg`.
///
/// Returns the merged [`RunReport`]. The model is validated first; wall
/// time covers the simulation only (instantiation happens inside ranks, as
/// in the paper, but before the timed loop... the paper likewise excludes
/// model compilation from its reported times).
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
pub fn run(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    let partition = Partition::uniform(model.total_cores(), world.ranks);
    let metrics = Arc::new(TransportMetrics::new());
    let started = Instant::now();
    let ranks = World::run_with_metrics(world, Arc::clone(&metrics), |ctx| {
        let block = partition.block(ctx.rank());
        let configs: Vec<CoreConfig> =
            model.cores[block.start as usize..block.end as usize].to_vec();
        run_rank(ctx, &partition, configs, &model.initial_deliveries, cfg)
    });
    let wall = started.elapsed();
    Ok(RunReport {
        ranks,
        wall,
        ticks: cfg.ticks,
        transport: metrics.snapshot(),
    })
}

/// Simulates `model` under a reliable-delivery layer, optionally with
/// seeded communication faults and an automatic rollback-recovery policy.
///
/// This is the self-healing configuration: every application payload is
/// framed/checksummed, each tick ends with an expected-vs-received audit
/// whose retransmission path suffers the same loss rate as `plan`
/// ([`ReliableConfig::against`]), and — when `policy` is set — gaps the
/// retransmit budget cannot close trigger a collective rollback to the
/// newest in-memory checkpoint instead of a panic. With `plan = None`
/// this measures the reliable layer's fault-free overhead; the trace is
/// unchanged either way.
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
pub fn run_recovering(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    plan: Option<FaultPlan>,
    policy: Option<RecoveryPolicy>,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    let job = Job {
        recovery: policy,
        ..Job::fixed(model, cfg, world.ranks)
    };
    Ok(drive(world, plan, &job).0)
}

/// Simulates `model` while one rank is killed mid-run, and drives the full
/// survival protocol to a bit-exact finish.
///
/// Every rank runs recovery-armed (`policy.survive_crashes` is forced on,
/// so buddy replication and per-tick heartbeats are active) with the same
/// `crash` plan. At the top of `crash.at_tick` the victim publishes its
/// death and terminates; the survivors reach a unanimous verdict at that
/// tick's heartbeat, retire the dead rank from the reliable layer and the
/// PGAS barrier, rebuild a degraded [`SurvivorView`] in which the ring
/// buddy adopts the victim's cores from its replicated checkpoint, roll
/// back to the common boundary, and replay to completion. Optional seeded
/// message faults (`plan`) compose with the crash exactly as in
/// [`run_recovering`].
///
/// The merged [`RunReport`] is bit-identical (trace, fires-per-tick) to a
/// fault-free run of the same model; the victim's rank slot is empty (its
/// thread died — its pre-crash fires are accounted by the adopting buddy)
/// and carries the planned crash as evidence via
/// [`RunReport::total_death_verdicts`].
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
///
/// # Panics
/// Panics when the crash plan is unsatisfiable (victim outside the world,
/// no survivor, crash after the last tick), and re-raises the panic of
/// any rank that dies other than the planned victim.
pub fn run_surviving(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    plan: Option<FaultPlan>,
    crash: CrashPlan,
    policy: RecoveryPolicy,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    check_crash(world.ranks, &crash);
    assert!(
        crash.at_tick < cfg.ticks,
        "the victim must die before the run ends"
    );
    let job = Job {
        recovery: Some(RecoveryPolicy {
            survive_crashes: true,
            ..policy
        }),
        crash: Some(crash),
        ..Job::fixed(model, cfg, world.ranks)
    };
    Ok(drive(world, plan, &job).0)
}

/// Panics unless `crash` names a rank of a `ranks`-rank world that leaves
/// at least one survivor.
fn check_crash(ranks: usize, crash: &CrashPlan) {
    assert!(ranks >= 2, "crash survival needs at least one survivor");
    assert!(
        crash.rank < ranks,
        "crash plan names rank {} outside a {ranks}-rank world",
        crash.rank
    );
}

// ---------------------------------------------------------------------------
// Durable checkpoints: whole-job restart from an on-disk store.
// ---------------------------------------------------------------------------

/// Everything that can go wrong launching or finishing a durable run.
#[derive(Debug)]
pub enum DurableError {
    /// The model failed validation.
    Model(ModelError),
    /// The checkpoint store could not be opened or scanned at startup.
    Store(StoreError),
    /// The simulation completed, but a rank's background writer failed to
    /// persist its generations — the store may lag the run's final state.
    Write(String),
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Model(e) => write!(f, "model error: {e}"),
            DurableError::Store(e) => write!(f, "checkpoint store: {e}"),
            DurableError::Write(e) => write!(f, "durable write failed: {e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Model(e) => Some(e),
            DurableError::Store(e) => Some(e),
            DurableError::Write(_) => None,
        }
    }
}

impl From<ModelError> for DurableError {
    fn from(e: ModelError) -> Self {
        DurableError::Model(e)
    }
}

impl From<StoreError> for DurableError {
    fn from(e: StoreError) -> Self {
        DurableError::Store(e)
    }
}

/// Simulates `model` with durable on-disk checkpoints, resuming from the
/// newest fully-committed generation if the store already holds one.
///
/// At startup the store under `policy.dir` is scanned
/// ([`CheckpointStore::recover`]): an empty (or entirely torn) store
/// starts the job from tick 0, while a store left behind by an earlier
/// process — even one killed mid-write — resumes every rank from the
/// newest generation whose manifest committed, with the trace and
/// per-tick fire counts seeded so the merged report is indistinguishable
/// from an uninterrupted run. During the run each rank snapshots at the
/// policy's cadence and hands the staged bytes to a background writer;
/// the tick loop never blocks on I/O.
///
/// Seeded message faults (`plan`), rollback recovery (`recovery`), and a
/// planned rank crash (`crash`) compose exactly as in
/// [`run_recovering`] / [`run_surviving`]: a pending crash forces
/// `survive_crashes` on, the survivors adopt and replay the degraded
/// segment (without durability — generations past the victim's death can
/// never commit anyway), and a restart after the crash re-fires the plan
/// so the trace stays bit-identical to the fault-free oracle.
///
/// # Errors
/// [`DurableError::Model`] for an inconsistent model,
/// [`DurableError::Store`] when the store cannot be opened or names a
/// different world size, and [`DurableError::Write`] when the simulation
/// finished but some rank's writer could not persist its generations.
///
/// # Panics
/// Panics when a pending crash plan is unsatisfiable (victim outside the
/// world, no survivor), and re-raises the panic of any rank that dies
/// other than the planned victim.
pub fn run_durable(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    policy: DurabilityPolicy,
    plan: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
    crash: Option<CrashPlan>,
) -> Result<RunReport, DurableError> {
    model.validate()?;
    let store = CheckpointStore::open(&policy.dir, policy.sync)?;
    let resume = store.recover(world.ranks as u32)?;
    // A committed generation never postdates a planned crash (the victim
    // stops writing when it dies), so a pending crash always re-fires on
    // restart; filter only guards a plan from an already-survived past.
    let crash = crash.filter(|c| resume.as_ref().is_none_or(|rp| c.at_tick >= rp.tick));
    // Unlike `run_surviving`, a crash at or past `cfg.ticks` is legal
    // here: a prefix run (a job that dies before the victim does) simply
    // never reaches the planned tick, and the relaunch re-fires the
    // still-pending plan.
    if let Some(c) = &crash {
        check_crash(world.ranks, c);
    }
    let recovery = match crash {
        Some(_) => Some(RecoveryPolicy {
            survive_crashes: true,
            ..recovery.unwrap_or_default()
        }),
        None => recovery,
    };
    let job = Job {
        recovery,
        crash,
        durability: Some(policy),
        resume: resume.map(|rp| rp.payloads),
        ..Job::fixed(model, cfg, world.ranks)
    };
    match drive(world, plan, &job) {
        (_, Some(e)) => Err(DurableError::Write(e)),
        (report, None) => Ok(report),
    }
}

// ---------------------------------------------------------------------------
// Elastic ranks: live scale-out/in and measured rebalancing.
// ---------------------------------------------------------------------------

/// One membership transition of an [`ElasticPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElasticEvent {
    /// A standby (or previously departed) rank joins the simulation and
    /// receives a share of the cores.
    Join(Rank),
    /// An active rank hands its cores to the remaining members and parks.
    Leave(Rank),
    /// Membership is unchanged; the core layout is recomputed from the
    /// measured per-core tick cost exchanged at the boundary.
    Rebalance,
}

/// An [`ElasticEvent`] pinned to a tick boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticStep {
    /// The tick boundary the transition executes at (top of this tick).
    pub at_tick: u32,
    /// What happens there.
    pub event: ElasticEvent,
}

impl ElasticStep {
    /// `rank` joins at the top of `at_tick`.
    pub fn join(at_tick: u32, rank: Rank) -> Self {
        Self {
            at_tick,
            event: ElasticEvent::Join(rank),
        }
    }

    /// `rank` leaves at the top of `at_tick`.
    pub fn leave(at_tick: u32, rank: Rank) -> Self {
        Self {
            at_tick,
            event: ElasticEvent::Leave(rank),
        }
    }

    /// The members rebalance their core layout at the top of `at_tick`.
    pub fn rebalance(at_tick: u32) -> Self {
        Self {
            at_tick,
            event: ElasticEvent::Rebalance,
        }
    }
}

/// A deterministic schedule of membership transitions: which ranks start
/// active and what happens at each boundary. Every rank of the world knows
/// the full plan (the in-process stand-in for a resource manager's
/// scale-out/in directives), so the *when* and *who* of each transition
/// need no agreement round — only dynamic values (collective sequence
/// numbers, the PGAS epoch, measured costs, core state) travel on the
/// wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElasticPlan {
    /// Ranks active from tick 0, ascending. The rest of the world starts
    /// parked as standbys.
    pub initial: Vec<Rank>,
    /// Transitions, strictly ascending by `at_tick`.
    pub steps: Vec<ElasticStep>,
}

impl ElasticPlan {
    /// A plan starting with `initial` active ranks.
    pub fn new(initial: Vec<Rank>, steps: Vec<ElasticStep>) -> Self {
        Self { initial, steps }
    }

    /// Validates the plan against a world of `world` ranks, `ticks` ticks
    /// and an optional crash, returning the membership after every step.
    ///
    /// # Panics
    /// Panics on an unsatisfiable plan: unknown or duplicate ranks,
    /// non-monotonic boundaries, joining an active or crashed rank,
    /// removing the last member, or a crash that falls on a boundary or
    /// on a parked/buddyless victim.
    fn validate(&self, world: usize, ticks: u32, crash: Option<&CrashPlan>) {
        assert!(!self.initial.is_empty(), "need at least one initial rank");
        assert!(
            self.initial.windows(2).all(|w| w[0] < w[1]),
            "initial members must be ascending and unique"
        );
        assert!(
            self.initial.iter().all(|&r| r < world),
            "initial member outside the world"
        );
        let mut members = self.initial.clone();
        let mut last = 0u32;
        for (i, step) in self.steps.iter().enumerate() {
            assert!(
                step.at_tick > last || (i == 0 && step.at_tick > 0),
                "boundaries must be strictly ascending and nonzero"
            );
            assert!(
                step.at_tick > 0 && step.at_tick < ticks,
                "boundary outside the run"
            );
            last = step.at_tick;
            if let Some(cp) = crash {
                assert_ne!(
                    cp.at_tick, step.at_tick,
                    "a crash cannot fall exactly on an elastic boundary"
                );
            }
            match step.event {
                ElasticEvent::Join(r) => {
                    assert!(r < world, "joining rank outside the world");
                    assert!(!members.contains(&r), "rank {r} is already a member");
                    if let Some(cp) = crash {
                        assert!(
                            !(cp.rank == r && cp.at_tick < step.at_tick),
                            "rank {r} crashed before its join boundary"
                        );
                    }
                    members.push(r);
                    members.sort_unstable();
                }
                ElasticEvent::Leave(r) => {
                    assert!(members.contains(&r), "rank {r} is not a member");
                    assert!(members.len() > 1, "the last member cannot leave");
                    if let Some(cp) = crash {
                        assert!(
                            !(cp.rank == r && cp.at_tick >= step.at_tick),
                            "the crash victim must still be active at its crash tick"
                        );
                    }
                    members.retain(|&m| m != r);
                }
                ElasticEvent::Rebalance => {}
            }
        }
        if let Some(cp) = crash {
            assert!(
                cp.at_tick > 0 && cp.at_tick < ticks,
                "crash outside the run"
            );
            // The victim must be active with at least one buddy over the
            // segment containing the crash tick.
            let mut m = self.initial.clone();
            for step in &self.steps {
                if step.at_tick > cp.at_tick {
                    break;
                }
                match step.event {
                    ElasticEvent::Join(r) => {
                        m.push(r);
                        m.sort_unstable();
                    }
                    ElasticEvent::Leave(r) => m.retain(|&x| x != r),
                    ElasticEvent::Rebalance => {}
                }
            }
            assert!(
                m.contains(&cp.rank),
                "the crash victim is parked at its crash tick"
            );
            assert!(m.len() >= 2, "the crash victim needs a surviving buddy");
        }
    }
}

/// Simulates `model` under a deterministic schedule of live membership
/// transitions: ranks join and leave the running world at tick
/// boundaries, cores migrate between ranks over checkpoint splices, and
/// the spike trace stays bit-identical to a run that never scaled.
///
/// Every segment runs crash-survival-armed (`policy.survive_crashes` is
/// forced on), so buddy replication is live throughout and an optional
/// `crash` composes with the schedule: the victim's cores are adopted
/// mid-segment exactly as in [`run_surviving`], and later transitions
/// proceed among the survivors. Optional message faults (`plan`) compose
/// as in [`run_recovering`].
///
/// At each boundary the active ranks exit their segment holding a
/// checkpoint of that boundary, then run the admission protocol over the
/// control channel: WELCOME (a joiner aligns its collective sequence
/// number and PGAS epoch with the incumbents'), COST (rebalance only —
/// every member publishes its measured per-core tick cost so all ranks
/// compute the identical [`Partition::by_cost`] layout), MIG (each old
/// owner ships the checkpoint runs that intersect each new owner's
/// block), and DONE (the collective admission verdict — an all-to-all
/// barrier no rank passes until every participant finished migrating).
///
/// # Errors
/// Returns the first [`ModelError`] if the model is inconsistent.
///
/// # Panics
/// Panics when the plan is unsatisfiable (see [`ElasticPlan`]), and
/// re-raises the panic of any rank that dies other than the planned
/// crash victim.
pub fn run_elastic(
    model: &NetworkModel,
    world: WorldConfig,
    cfg: &EngineConfig,
    plan: Option<FaultPlan>,
    crash: Option<CrashPlan>,
    elastic: &ElasticPlan,
    policy: RecoveryPolicy,
) -> Result<RunReport, ModelError> {
    model.validate()?;
    elastic.validate(world.ranks, cfg.ticks, crash.as_ref());
    let job = Job {
        recovery: Some(RecoveryPolicy {
            survive_crashes: true,
            ..policy
        }),
        crash,
        elastic: elastic.clone(),
        ..Job::fixed(model, cfg, world.ranks)
    };
    Ok(drive(world, plan, &job).0)
}

// ---------------------------------------------------------------------------
// The job driver behind every resilient entry point.
// ---------------------------------------------------------------------------

/// One job as the segment loop runs it.
struct Job<'a> {
    model: &'a NetworkModel,
    cfg: &'a EngineConfig,
    recovery: Option<RecoveryPolicy>,
    crash: Option<CrashPlan>,
    /// Membership schedule; a fixed world has every rank initial and no
    /// steps, so it runs as a single segment.
    elastic: ElasticPlan,
    /// Durable persistence, armed for the first segment only: once a rank
    /// has died no later generation could commit anyway.
    durability: Option<DurabilityPolicy>,
    /// Each rank's slice of a recovered durable generation.
    resume: Option<Vec<ReplicaPayload>>,
}

impl<'a> Job<'a> {
    /// A fixed `ranks`-rank world with no fault handling.
    fn fixed(model: &'a NetworkModel, cfg: &'a EngineConfig, ranks: usize) -> Self {
        Self {
            model,
            cfg,
            recovery: None,
            crash: None,
            elastic: ElasticPlan::new((0..ranks).collect(), Vec::new()),
            durability: None,
            resume: None,
        }
    }
}

/// Runs `job` on every rank of a reliable-delivery world with optional
/// seeded message faults `plan`, and merges the per-rank reports. The
/// planned crash victim's slot is an empty report (its pre-crash history
/// is accounted by the adopting buddy); any other rank death is re-raised
/// with its own panic message. Also returns the first rank's durable
/// write error, if any.
fn drive(
    world: WorldConfig,
    plan: Option<FaultPlan>,
    job: &Job<'_>,
) -> (RunReport, Option<String>) {
    let metrics = Arc::new(TransportMetrics::new());
    let faults = plan.map(|p| Arc::new(FaultInjector::new(p, world.ranks)));
    let rely_cfg = plan
        .as_ref()
        .map_or_else(ReliableConfig::default, ReliableConfig::against);
    let rely = Arc::new(ReliableWorld::new(
        world.ranks,
        Arc::clone(&metrics),
        rely_cfg,
    ));
    let started = Instant::now();
    let results =
        World::try_run_with_recovery(world, Arc::clone(&metrics), faults, Some(rely), |ctx| {
            run_job(ctx, job)
        });
    let mut ranks = Vec::with_capacity(world.ranks);
    let mut write_error = None;
    for res in results {
        match res {
            Ok((report, err)) => {
                write_error = write_error.or(err);
                ranks.push(report);
            }
            Err(failure) => {
                let planned = failure.crash().is_some_and(|rc| {
                    job.crash
                        .is_some_and(|cp| (rc.rank, rc.tick) == (cp.rank, cp.at_tick))
                });
                if !planned {
                    failure.resume();
                }
                ranks.push(RankReport::default());
            }
        }
    }
    let report = RunReport {
        ranks,
        wall: started.elapsed(),
        ticks: job.cfg.ticks,
        transport: metrics.snapshot(),
    };
    (report, write_error)
}

/// Control-message kinds on the elastic channel (`ctrl_send`/`ctrl_recv`
/// tag space). One protocol round each; all tagged with the boundary tick
/// so rounds of different boundaries can never cross.
const ELASTIC_WELCOME: u8 = 1;
const ELASTIC_COST: u8 = 2;
const ELASTIC_MIG: u8 = 3;
const ELASTIC_DONE: u8 = 4;

/// This rank's core configurations under `view`, in local-index order.
fn configs_of(model: &NetworkModel, view: &SurvivorView, me: Rank) -> Vec<CoreConfig> {
    view.blocks_of(me)
        .into_iter()
        .flat_map(|b| {
            model.cores[b.start as usize..b.end as usize]
                .iter()
                .cloned()
        })
        .collect()
}

/// The per-rank segment loop. Each pass runs one segment — up to the next
/// elastic boundary, or to the end of the run — seeded with the rank's
/// recorded history, and matches on how it ended:
///
/// * **finished** — the run is over, or the segment stopped at an elastic
///   boundary holding that boundary's checkpoint: the members run the
///   admission protocol (see [`run_elastic`]) and the next segment starts
///   from the spliced checkpoints;
/// * **death verdict** — a peer died: the buddy adopts the victim's cores
///   and history from its replica, and the rest of the segment replays
///   from the common boundary in the degraded view.
///
/// Parked ranks skip the segments and track deaths from the shared plan.
#[allow(clippy::too_many_lines)]
fn run_job(ctx: &RankCtx, job: &Job<'_>) -> (RankReport, Option<String>) {
    let me = ctx.rank();
    let n_world = ctx.world_size();
    let total = job.model.total_cores();
    let mut members = job.elastic.initial.clone();
    let mut view = SurvivorView::remap(
        member_partition(total, n_world, &members, None),
        members.clone(),
    );
    // Standbys sit outside the PGAS commit barrier until admitted.
    if !members.contains(&me) {
        ctx.pgas().detach(me);
    }
    // A resumed durable job restores this rank's slice of the generation
    // and the history the dead process had already recorded.
    let (mut resume, mut history) = match &job.resume {
        Some(payloads) => {
            let p = &payloads[me];
            let history = (p.trace.clone(), p.fires_per_tick.clone());
            (Some(p.ckpt.clone()), history)
        }
        None => (None, (Vec::new(), Vec::new())),
    };
    let mut durability = job.durability.clone();
    let mut durable_error: Option<String> = None;
    let mut acc: Option<RankReport> = None;
    let mut dead: Option<Rank> = None;
    let mut start = 0u32;
    let mut mig_cores = 0u64;
    let mut mig_bytes = 0u64;
    let mut mig_time = Duration::ZERO;

    for i in 0..=job.elastic.steps.len() {
        let step = job.elastic.steps.get(i);
        let seg_end = step.map(|s| s.at_tick);

        // ---- Run the segment (active ranks only) ----
        let mut boundary_ck: Option<RankCheckpoint> = None;
        if members.contains(&me) {
            loop {
                let opts = RunOptions {
                    checkpoint_at: seg_end,
                    kill_at: seg_end,
                    resume: resume.take(),
                    recovery: job.recovery,
                    crash: job.crash,
                    seed_history: Some(std::mem::take(&mut history)),
                    durability: durability.take(),
                };
                let out = run_rank_view(
                    ctx,
                    &view,
                    configs_of(job.model, &view, me),
                    &job.model.initial_deliveries,
                    job.cfg,
                    &opts,
                );
                durable_error = durable_error.or(out.durable_error);
                let mut report = out.report;
                let verdict = out.interrupt;
                if let Some(int) = &verdict {
                    // A peer died; the engine already wound the report
                    // back to the common boundary. Merge own + adopted
                    // cores in ascending global order — the layout the
                    // degraded view's `local_index` expects. Each block is
                    // contiguous in its old host's checkpoint, so this is
                    // a sequence of range copies.
                    let mut pieces: Vec<(Rank, &RankCheckpoint, Range<u64>)> = view
                        .blocks_of(me)
                        .into_iter()
                        .map(|b| (me, &int.resume, b))
                        .collect();
                    if let Some(rp) = &int.adopted {
                        pieces.extend(
                            view.blocks_of(int.dead)
                                .into_iter()
                                .map(|b| (int.dead, &rp.ckpt, b)),
                        );
                        report.adopted_cores += rp.ckpt.core_count() as u64;
                        // The victim's recorded history died with its
                        // thread; its replica carries it, and it joins this
                        // rank's own pre-boundary history.
                        report.trace.extend_from_slice(&rp.trace);
                        if report.fires_per_tick.len() < rp.fires_per_tick.len() {
                            report.fires_per_tick.resize(rp.fires_per_tick.len(), 0);
                        }
                        for (a, b) in report.fires_per_tick.iter_mut().zip(&rp.fires_per_tick) {
                            *a += b;
                        }
                    }
                    pieces.sort_by_key(|(_, _, run)| run.start);
                    let mut blob = Vec::new();
                    for (host, ck, run) in &pieces {
                        blob.extend_from_slice(slice_run(&view, *host, ck, run));
                    }
                    resume = Some(RankCheckpoint {
                        rank: me as u32,
                        start_tick: int.resume.start_tick(),
                        blob,
                    });
                    // The verdict-to-boundary distance is replayed.
                    report.replayed_ticks += u64::from(int.at_tick - int.resume.start_tick());
                    view = view.without(int.dead);
                    members.retain(|&m| m != int.dead);
                    dead = Some(int.dead);
                }
                history = (report.trace.clone(), report.fires_per_tick.clone());
                acc = Some(match acc.take() {
                    None => report,
                    Some(prev) => fold_segments(prev, report),
                });
                if verdict.is_none() {
                    boundary_ck = out.checkpoint;
                    break;
                }
            }
        } else if let Some(cp) = &job.crash {
            // Parked ranks track deaths from the (shared) plan so their
            // view of membership stays in lockstep.
            let in_window = cp.at_tick >= start && seg_end.is_none_or(|e| cp.at_tick < e);
            if in_window && members.contains(&cp.rank) {
                dead = Some(cp.rank);
                members.retain(|&m| m != cp.rank);
                view = view.without(cp.rank);
            }
        }

        let Some(step) = step else { break };
        let b = step.at_tick;

        // ---- Boundary protocol ----
        let old_members = members.clone();
        let mut new_members = members.clone();
        let mut joiner: Option<Rank> = None;
        let mut leaver: Option<Rank> = None;
        match step.event {
            ElasticEvent::Join(r) => {
                assert_ne!(Some(r), dead, "cannot admit a crashed rank");
                joiner = Some(r);
                new_members.push(r);
                new_members.sort_unstable();
            }
            // A planned leaver that already crashed degenerates the
            // boundary to a rebalance among the survivors.
            ElasticEvent::Leave(r) if Some(r) != dead => {
                leaver = Some(r);
                new_members.retain(|&m| m != r);
            }
            ElasticEvent::Leave(_) | ElasticEvent::Rebalance => {}
        }
        assert!(!new_members.is_empty(), "the world emptied out");
        let mut participants = old_members.clone();
        participants.extend(joiner);
        participants.sort_unstable();
        let involved = participants.contains(&me);
        let t0 = Instant::now();

        // WELCOME: the incumbents' leader hands the joiner the dynamic
        // state a parked rank cannot know — the collective sequence
        // counter and the PGAS epoch.
        if let Some(j) = joiner {
            let leader = old_members[0];
            if me == leader {
                let mut payload = Vec::with_capacity(16);
                payload.extend_from_slice(&ctx.comm().seq().to_le_bytes());
                payload.extend_from_slice(&ctx.pgas().epoch().to_le_bytes());
                ctx.comm().ctrl_send(j, ELASTIC_WELCOME, b, payload);
            }
            if me == j {
                let w = ctx
                    .comm()
                    .ctrl_recv_until(leader, ELASTIC_WELCOME, b, ctx.membership())
                    .expect("the welcoming leader died before the join boundary");
                let seq = u64::from_le_bytes(w[0..8].try_into().expect("welcome seq"));
                let epoch = u64::from_le_bytes(w[8..16].try_into().expect("welcome epoch"));
                ctx.comm().sync_seq(seq);
                ctx.pgas().set_epoch(epoch);
                // Collective admission: fresh pair state on the reliable
                // layer, liveness flag on, and a seat in the PGAS commit
                // barrier (quiescent here — every incumbent is inside the
                // boundary protocol).
                ctx.reliable()
                    .expect("elastic worlds install a reliable layer")
                    .admit_rank(me);
                ctx.membership().admit(me);
                ctx.pgas().attach(me);
                // Parked ticks observed no fires.
                if job.cfg.tick_stats {
                    history.1.resize(b as usize, 0);
                }
            }
        }

        // COST: every member publishes its measured per-core tick cost to
        // the whole world (parked ranks track the layout too — they need
        // it to compute intersections when they later join). All ranks
        // then assemble the identical global cost vector and compute the
        // identical layout.
        let costs = matches!(step.event, ElasticEvent::Rebalance).then(|| {
            let my_costs: Vec<u64> = if old_members.contains(&me) {
                let rep = acc.as_ref().expect("active ranks have a report");
                assert_eq!(
                    rep.core_tick_ns.len() as u64,
                    view.count(me),
                    "rank {me}: cost vector does not cover the hosted cores"
                );
                let payload: Vec<u8> = rep
                    .core_tick_ns
                    .iter()
                    .flat_map(|c| c.to_le_bytes())
                    .collect();
                for dst in 0..n_world {
                    if dst != me && Some(dst) != dead {
                        ctx.comm().ctrl_send(dst, ELASTIC_COST, b, payload.clone());
                    }
                }
                rep.core_tick_ns.clone()
            } else {
                Vec::new()
            };
            let mut global = vec![0u64; total as usize];
            for &o in &old_members {
                let costs: Vec<u64> = if o == me {
                    my_costs.clone()
                } else {
                    let raw = ctx.comm().ctrl_recv(o, ELASTIC_COST, b);
                    raw.chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("cost word")))
                        .collect()
                };
                for (core, c) in view.blocks_of(o).into_iter().flatten().zip(costs) {
                    global[core as usize] = c;
                }
            }
            global
        });
        let new_part = member_partition(total, n_world, &new_members, costs.as_deref());
        let new_view = SurvivorView::remap(new_part, new_members.clone());

        // MIG: old owners ship the checkpoint runs that intersect each new
        // owner's layout; receivers splice them (plus their own kept runs)
        // into the resumed checkpoint.
        if involved {
            let mut my_runs: Vec<MigrationRun> = Vec::new();
            if old_members.contains(&me) {
                let ck = boundary_ck
                    .as_ref()
                    .expect("an active rank exits a boundary with its checkpoint");
                assert_eq!(ck.start_tick(), b, "boundary checkpoint tick mismatch");
                let mine = view.blocks_of(me);
                for &m in &new_members {
                    let runs: Vec<MigrationRun> = intersect_blocks(&mine, &new_view.blocks_of(m))
                        .iter()
                        .map(|run| MigrationRun {
                            global_start: run.start,
                            blob: slice_run(&view, me, ck, run).to_vec(),
                        })
                        .collect();
                    if m == me {
                        my_runs.extend(runs);
                    } else if !runs.is_empty() {
                        let env = MigrationEnvelope { boundary: b, runs };
                        mig_bytes += env.total_bytes();
                        ctx.comm().ctrl_send(m, ELASTIC_MIG, b, env.to_bytes());
                    }
                }
            }
            if new_members.contains(&me) {
                let mine_new = new_view.blocks_of(me);
                for &o in &old_members {
                    if o == me || intersect_blocks(&view.blocks_of(o), &mine_new).is_empty() {
                        continue;
                    }
                    let raw = ctx.comm().ctrl_recv(o, ELASTIC_MIG, b);
                    let env = MigrationEnvelope::from_bytes(&raw)
                        .expect("migration envelope survived the internal channel");
                    assert_eq!(env.boundary, b, "migration boundary mismatch");
                    mig_cores += env.core_count() as u64;
                    my_runs.extend(env.runs);
                }
                my_runs.sort_by_key(|r| r.global_start);
                let blob = my_runs
                    .iter()
                    .map(|r| &r.blob[..])
                    .collect::<Vec<_>>()
                    .concat();
                assert_eq!(
                    blob.len(),
                    new_view.count(me) as usize * CORE_SNAPSHOT_BYTES,
                    "rank {me}: spliced checkpoint does not fill the new block"
                );
                resume = Some(RankCheckpoint {
                    rank: me as u32,
                    start_tick: b,
                    blob,
                });
            } else {
                resume = None;
            }

            // DONE: the collective admission verdict — an all-to-all no
            // participant passes until every other has finished migrating,
            // so no rank can leak traffic from the next segment into this
            // boundary.
            for &p in &participants {
                if p != me {
                    ctx.comm().ctrl_send(p, ELASTIC_DONE, b, Vec::new());
                }
            }
            for &p in &participants {
                if p != me {
                    let _ = ctx.comm().ctrl_recv(p, ELASTIC_DONE, b);
                }
            }
            if leaver == Some(me) {
                ctx.pgas().detach(me);
            }
            mig_time += t0.elapsed();
        }

        members = new_members;
        view = new_view;
        start = b;
    }

    let mut out = acc.unwrap_or_default();
    out.migrated_cores += mig_cores;
    out.migration_bytes += mig_bytes;
    out.migration_time += mig_time;
    (out, durable_error)
}

/// The world-sized [`Partition`] hosting `total` cores on `members` only:
/// member blocks split by `costs` (measured per-core tick cost; `None`
/// means uniform), every non-member block empty — the shape
/// [`SurvivorView::remap`] expects.
fn member_partition(
    total: u64,
    world: usize,
    members: &[Rank],
    costs: Option<&[u64]>,
) -> Partition {
    let blocks = match costs {
        Some(c) => Partition::by_cost(c, members.len()),
        None => Partition::uniform(total, members.len()),
    };
    let mut counts = vec![0u64; world];
    for (i, &m) in members.iter().enumerate() {
        counts[m] = blocks.count(i);
    }
    Partition::from_counts(&counts)
}

/// Ascending intersections of two ascending block lists — the contiguous
/// core runs one old owner must ship to one new owner. Each run falls
/// inside exactly one block of either side, so its snapshot bytes are
/// contiguous in both hosts' flat checkpoint blobs.
fn intersect_blocks(a: &[Range<u64>], b: &[Range<u64>]) -> Vec<Range<u64>> {
    let mut out = Vec::new();
    for ra in a {
        for rb in b {
            let start = ra.start.max(rb.start);
            let end = ra.end.min(rb.end);
            if start < end {
                out.push(start..end);
            }
        }
    }
    out.sort_by_key(|r| r.start);
    out
}

/// The snapshot bytes of global core range `run` in `host`'s boundary
/// checkpoint under `view`.
fn slice_run<'a>(
    view: &SurvivorView,
    host: Rank,
    ck: &'a RankCheckpoint,
    run: &Range<u64>,
) -> &'a [u8] {
    let lo = view.local_index(host, run.start) * CORE_SNAPSHOT_BYTES;
    let hi = lo + (run.end - run.start) as usize * CORE_SNAPSHOT_BYTES;
    &ck.blob[lo..hi]
}

/// Folds an earlier segment's report into a later one whose history was
/// *seeded* with the earlier segment's (so trace and per-tick fires come
/// from the later report alone — they are already cumulative). Lifetime
/// core-derived values travel inside the checkpoints and come from the
/// later segment; reliable-layer counters are cumulative over the shared
/// world and come from the later segment; everything else is work done,
/// and sums.
fn fold_segments(prev: RankReport, next: RankReport) -> RankReport {
    let mut out = next;
    out.phases.add(&prev.phases);
    out.spikes_local += prev.spikes_local;
    out.spikes_remote += prev.spikes_remote;
    out.messages_sent += prev.messages_sent;
    for (a, b) in out.bytes_to.iter_mut().zip(&prev.bytes_to) {
        *a += b;
    }
    out.critical_wait += prev.critical_wait;
    out.critical_hold += prev.critical_hold;
    out.synapse_skips += prev.synapse_skips;
    out.neuron_skips += prev.neuron_skips;
    out.checkpoint_bytes += prev.checkpoint_bytes;
    out.checkpoint_time += prev.checkpoint_time;
    out.rollbacks += prev.rollbacks;
    out.replayed_ticks += prev.replayed_ticks;
    out.recovery_time += prev.recovery_time;
    out.death_verdicts += prev.death_verdicts;
    out.replication_bytes += prev.replication_bytes;
    out.replication_time += prev.replication_time;
    out.delta_replica_ships += prev.delta_replica_ships;
    out.full_replica_ships += prev.full_replica_ships;
    out.adopted_cores += prev.adopted_cores;
    out.migrated_cores += prev.migrated_cores;
    out.migration_bytes += prev.migration_bytes;
    out.migration_time += prev.migration_time;
    out.durable_bytes += prev.durable_bytes;
    out.durable_time += prev.durable_time;
    out.durable_generations += prev.durable_generations;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Backend;

    #[test]
    fn run_produces_merged_report() {
        let model = NetworkModel::relay_ring(4, 4, 1);
        let report = run(
            &model,
            WorldConfig::flat(2),
            &EngineConfig::new(20, Backend::Mpi),
        )
        .unwrap();
        assert_eq!(report.ranks.len(), 2);
        assert_eq!(report.total_cores(), 4);
        assert_eq!(report.ticks, 20);
        assert_eq!(report.total_fires(), 4 * 19);
        assert!(report.wall.as_nanos() > 0);
        assert!(report.slowdown_factor() > 0.0);
    }

    #[test]
    fn transport_metrics_reflect_spike_messages() {
        let model = NetworkModel::relay_ring(4, 4, 1);
        let report = run(
            &model,
            WorldConfig::flat(4),
            &EngineConfig::new(10, Backend::Mpi),
        )
        .unwrap();
        assert_eq!(report.transport.p2p_messages, report.total_messages());
        assert_eq!(
            report.transport.p2p_bytes,
            report.total_remote_spikes() * tn_core::SPIKE_WIRE_BYTES as u64
        );
    }

    #[test]
    fn pgas_run_uses_puts_not_p2p() {
        let model = NetworkModel::relay_ring(4, 4, 1);
        let report = run(
            &model,
            WorldConfig::flat(4),
            &EngineConfig::new(10, Backend::Pgas),
        )
        .unwrap();
        assert_eq!(report.transport.p2p_messages, 0);
        assert!(report.transport.puts > 0);
        assert!(report.transport.barriers > 0);
    }

    #[test]
    fn invalid_model_is_rejected() {
        let mut model = NetworkModel::relay_ring(2, 1, 0);
        model.cores[0].id = 9;
        assert!(run(
            &model,
            WorldConfig::flat(1),
            &EngineConfig::new(1, Backend::Mpi)
        )
        .is_err());
    }

    #[test]
    fn mean_rate_tracks_pacemaker_duty_cycle() {
        let model = NetworkModel::pacemaker(2, 100, 0);
        let report = run(
            &model,
            WorldConfig::flat(1),
            &EngineConfig::new(200, Backend::Mpi),
        )
        .unwrap();
        // Period-100 pacemakers at 1000 Hz ticks fire at 10 Hz.
        let rate = report.mean_rate_hz();
        assert!((rate - 10.0).abs() < 1.0, "rate {rate}");
    }
}
