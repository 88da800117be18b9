//! The system a run builds, and the traced driver that runs it.
//!
//! [`System::build`] is the set-up a run pays before its first cycle: the
//! workload stream, the ORAM hierarchy, the controller, the DRAM model, the
//! LLC and (open loop) the serving engine. [`run_traced`] then re-issues the
//! runner's per-iteration sequence of public calls (`run_core` in
//! `crates/sim/src/runner.rs`), in the same order, with a span around every
//! call into a layer. The benchmark checks that the traced run's cycles and
//! latency vectors equal the untraced run's, so a change to the runner loop
//! that this driver does not follow fails loudly instead of skewing the
//! attribution.

use palermo_controller::{ControllerStats, OramController};
use palermo_dram::{DramStats, DramSystem};
use palermo_oram::crypto::Payload;
use palermo_oram::error::{OramError, OramResult};
use palermo_oram::hierarchy::HierarchicalOram;
use palermo_oram::types::{OramOp, PhysAddr};
use palermo_sim::{CalendarStepper, Scheme, ServingEngine, Stepper, SystemConfig, WorkloadSpec};
use palermo_workloads::{AccessStream, Llc};
use std::time::Instant;

/// Everything one run builds before it simulates a cycle.
pub struct System {
    /// The workload's access stream.
    pub stream: Box<dyn AccessStream>,
    /// The ORAM protocol instance.
    pub oram: HierarchicalOram,
    /// The ORAM controller model.
    pub controller: OramController,
    /// The DRAM model.
    pub dram: DramSystem,
    /// The last-level cache filtering the stream.
    pub llc: Llc,
    /// The open-loop serving engine (`None` in closed loop).
    pub serving: Option<ServingEngine>,
}

impl System {
    /// Builds the system the runner builds for `(scheme, spec, config)`.
    pub fn build(scheme: Scheme, spec: &WorkloadSpec, config: &SystemConfig) -> OramResult<Self> {
        let params = config.hierarchy_params()?;
        let prefetch_length = if scheme.uses_prefetch() {
            config
                .prefetch_override
                .unwrap_or_else(|| spec.default_prefetch_length())
                .max(1)
        } else {
            1
        };
        let hierarchy_cfg =
            scheme.hierarchy_config(params, config.seed, prefetch_length, config.stash_capacity)?;
        let stream = spec.build(config.stream_footprint_hint(), config.stream_seed())?;
        config
            .dram
            .validate()
            .map_err(|e| OramError::InvalidParams {
                reason: format!("invalid DRAM configuration: {e}"),
            })?;
        Ok(System {
            stream,
            oram: HierarchicalOram::new(hierarchy_cfg)?,
            controller: OramController::new(scheme.controller_config(config.pe_columns)),
            dram: DramSystem::new(config.dram),
            llc: Llc::new(config.llc),
            serving: spec.open_loop().map(|o| {
                ServingEngine::new(
                    o,
                    config.serving_queue_capacity,
                    config.admission_policy,
                    config.seed,
                )
            }),
        })
    }
}

/// The layers host time is attributed to, one per crate boundary the runner
/// loop crosses (the controller is split into its submit and tick calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ServingEngine::advance` / `pop_ready`.
    Serving,
    /// `AccessStream` pulls, `Llc::access` and `Llc::fill_line`.
    Workloads,
    /// `HierarchicalOram::{needs_background_evict, background_evict, access}`.
    Oram,
    /// `OramController::try_submit`.
    Submit,
    /// `OramController::tick`.
    Controller,
    /// `DramSystem::tick`.
    Dram,
    /// `OramController::drain_finished` and the per-completion bookkeeping.
    Retire,
    /// `CalendarStepper::advance_idle`, including the DRAM event ticks it
    /// runs inside a skip window (`DramSystem::skip_to_and_tick`).
    Stepper,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Controller,
        Layer::Dram,
        Layer::Stepper,
        Layer::Oram,
        Layer::Submit,
        Layer::Retire,
        Layer::Serving,
        Layer::Workloads,
    ];

    /// Short name used in span records and the report table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Serving => "serving",
            Layer::Workloads => "workloads",
            Layer::Oram => "oram",
            Layer::Submit => "submit",
            Layer::Controller => "controller",
            Layer::Dram => "dram",
            Layer::Retire => "retire",
            Layer::Stepper => "stepper",
        }
    }

    /// Position of the layer in [`Traced::layer_ns`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a per-request span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Forming a real request: arrival pop, stream pulls through the LLC,
    /// the ORAM access and the prefetch fills.
    Stage,
    /// The `try_submit` call that accepted the request's plan.
    Submit,
    /// The runner's bookkeeping for the request's completion.
    Retire,
}

impl SpanKind {
    /// Name used in the span records.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Stage => "stage",
            SpanKind::Submit => "submit",
            SpanKind::Retire => "retire",
        }
    }
}

/// One per-request span, in nanoseconds from the start of the run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What the span covers.
    pub kind: SpanKind,
    /// The ORAM request id the span belongs to.
    pub request_id: u64,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
}

/// Exact work counts of one traced run. Summed over several runs they stay
/// exact, so two invocations with the same seed must agree field for field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Iterations of the runner loop.
    pub loop_iters: u64,
    /// `OramController::tick` calls.
    pub controller_ticks: u64,
    /// Controller ticks that reported `settled`.
    pub settled_ticks: u64,
    /// `try_submit` calls.
    pub submit_attempts: u64,
    /// `try_submit` calls that handed the plan back.
    pub submit_rejects: u64,
    /// `DramSystem::tick` calls made by the loop (not the stepper's).
    pub dram_ticks: u64,
    /// Access plans staged (real plus background evictions).
    pub plans: u64,
    /// Background-eviction plans.
    pub bg_evicts: u64,
    /// DRAM operations the staged plans carry (`AccessPlan::total_traffic`).
    pub plan_traffic: u64,
    /// Highest stash occupancy (maximum over the summed runs).
    pub stash_high_water: u64,
    /// Workload-stream pulls.
    pub pulls: u64,
    /// LLC hits over the whole run.
    pub llc_hits: u64,
    /// LLC misses over the whole run.
    pub llc_misses: u64,
    /// `advance_idle` calls.
    pub stepper_calls: u64,
    /// `advance_idle` calls with `quiescent == true`.
    pub quiescent_calls: u64,
    /// Quiescent calls that moved the clock (skip windows).
    pub skip_windows: u64,
    /// Cycles the stepper moved the clock by.
    pub skipped_cycles: u64,
    /// Cycles simulated over the whole run.
    pub total_cycles: u64,
    /// Real requests completed over the whole run (warm-up + measured).
    pub real_requests: u64,
    /// Real requests completed in the measured window.
    pub measured_requests: u64,
    /// Controller counters over the measured window.
    pub controller_window: ControllerStats,
    /// DRAM counters over the measured window.
    pub dram_window: DramStats,
}

impl Counts {
    /// Adds another run's counts (maxima for the high-water mark).
    pub fn add(&mut self, o: &Counts) {
        self.loop_iters += o.loop_iters;
        self.controller_ticks += o.controller_ticks;
        self.settled_ticks += o.settled_ticks;
        self.submit_attempts += o.submit_attempts;
        self.submit_rejects += o.submit_rejects;
        self.dram_ticks += o.dram_ticks;
        self.plans += o.plans;
        self.bg_evicts += o.bg_evicts;
        self.plan_traffic += o.plan_traffic;
        self.stash_high_water = self.stash_high_water.max(o.stash_high_water);
        self.pulls += o.pulls;
        self.llc_hits += o.llc_hits;
        self.llc_misses += o.llc_misses;
        self.stepper_calls += o.stepper_calls;
        self.quiescent_calls += o.quiescent_calls;
        self.skip_windows += o.skip_windows;
        self.skipped_cycles += o.skipped_cycles;
        self.total_cycles += o.total_cycles;
        self.real_requests += o.real_requests;
        self.measured_requests += o.measured_requests;
        let (c, oc) = (&mut self.controller_window, &o.controller_window);
        c.cycles += oc.cycles;
        c.issue_cycles += oc.issue_cycles;
        c.sync_stall_cycles += oc.sync_stall_cycles;
        let (d, od) = (&mut self.dram_window, &o.dram_window);
        d.cycles += od.cycles;
        d.reads += od.reads;
        d.writes += od.writes;
        d.row_hits += od.row_hits;
        d.row_misses += od.row_misses;
        d.row_conflicts += od.row_conflicts;
        d.data_bus_busy_cycles += od.data_bus_busy_cycles;
        d.queue_occupancy_sum += od.queue_occupancy_sum;
        d.read_latency_sum += od.read_latency_sum;
        d.channels = od.channels;
    }
}

/// The result of one traced run.
pub struct Traced {
    /// Cycles of the measured window (must equal `RunMetrics::cycles`).
    pub cycles: u64,
    /// Service latencies of the measured window (must equal
    /// `RunMetrics::latencies`).
    pub latencies: Vec<u64>,
    /// Queue waits of the measured window (must equal
    /// `RunMetrics::queue_waits`).
    pub queue_waits: Vec<u64>,
    /// Exact work counts.
    pub counts: Counts,
    /// Host ns per layer, indexed like [`Layer`]'s discriminants.
    pub layer_ns: [u64; 8],
    /// Per-request spans, in the order they closed.
    pub spans: Vec<Span>,
}

impl Traced {
    /// Host ns attributed to `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.layer_ns[layer.index()]
    }
}

/// Accumulates per-layer host time against one run's start instant.
struct Clock {
    origin: Instant,
    layer_ns: [u64; 8],
}

impl Clock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Charges the time since `start_ns` to `layer` and returns the end.
    fn charge(&mut self, layer: Layer, start_ns: u64) -> u64 {
        let end = self.now_ns();
        self.layer_ns[layer.index()] += end - start_ns;
        end
    }
}

/// Runner-side bookkeeping for one request between staging and retirement.
struct InFlight {
    request_id: u64,
    is_dummy: bool,
    arrived_at: Option<u64>,
}

/// Runs `(scheme, spec)` under `config` with the runner's call sequence,
/// timing every call into a layer.
///
/// # Errors
///
/// Propagates build errors and ORAM errors exactly as the runner does, and
/// reports a completion the driver never staged as
/// [`OramError::InvalidParams`].
#[allow(clippy::too_many_lines)]
pub fn run_traced(
    scheme: Scheme,
    spec: &WorkloadSpec,
    config: &SystemConfig,
) -> OramResult<Traced> {
    let mut clock = Clock {
        origin: Instant::now(),
        layer_ns: [0; 8],
    };
    let System {
        mut stream,
        mut oram,
        mut controller,
        mut dram,
        mut llc,
        mut serving,
    } = System::build(scheme, spec, config)?;
    let stepper = CalendarStepper;

    let protected_lines = config.protected_bytes / 64;
    let total_requests = config.total_requests();
    let warmup = config.warmup_requests;
    let pull_tags = config.collect_per_tenant && stream.tenant_count() > 1;

    let mut counts = Counts::default();
    let mut spans = Vec::new();
    let mut in_flight: Vec<InFlight> = Vec::new();
    let mut latencies = Vec::new();
    let mut queue_waits = Vec::new();
    let mut submitted: u64 = 0;
    let mut finished_real: u64 = 0;
    let mut pending_plan = None;
    let mut measuring = warmup == 0;
    let mut measure_start_cycle = 0u64;
    let mut dram_at_start = dram.stats();
    let mut ctrl_at_start = *controller.stats();

    while finished_real < total_requests {
        counts.loop_iters += 1;

        let arrivals_advanced_to = dram.cycle();
        if let Some(engine) = serving.as_mut() {
            let t = clock.now_ns();
            engine.advance(arrivals_advanced_to);
            clock.charge(Layer::Serving, t);
        }

        if pending_plan.is_none() && submitted < total_requests + config.measured_requests {
            let t = clock.now_ns();
            let evict = oram.needs_background_evict();
            clock.charge(Layer::Oram, t);
            if evict {
                let t = clock.now_ns();
                let result = oram.background_evict();
                clock.charge(Layer::Oram, t);
                counts.plans += 1;
                counts.bg_evicts += 1;
                counts.plan_traffic += result.plan.total_traffic() as u64;
                in_flight.push(InFlight {
                    request_id: result.plan.request_id,
                    is_dummy: true,
                    arrived_at: None,
                });
                pending_plan = Some(result.plan);
            } else if submitted < total_requests {
                let stage_start = clock.now_ns();
                let arrival = match serving.as_mut() {
                    None => Some(None),
                    Some(engine) => {
                        let popped = engine.pop_ready();
                        clock.charge(Layer::Serving, stage_start);
                        popped.map(Some)
                    }
                };
                if let Some(arrival) = arrival {
                    let route = arrival.and_then(|a| {
                        serving
                            .as_ref()
                            .is_some_and(ServingEngine::routes_per_tenant)
                            .then_some(a.tenant)
                    });
                    let t = clock.now_ns();
                    let mut guard = 0u64;
                    let (pa, op) = loop {
                        let entry = if let Some(tenant) = route {
                            stream.next_tagged_for(tenant).entry
                        } else if pull_tags {
                            stream.next_tagged().entry
                        } else {
                            stream.next_access()
                        };
                        counts.pulls += 1;
                        let pa = PhysAddr::new(entry.addr.0 % (protected_lines * 64));
                        if !llc.access(pa) {
                            break (pa, entry.op);
                        }
                        guard += 1;
                        if guard > 1_000_000 {
                            return Err(OramError::WorkloadStalled {
                                accesses_scanned: guard,
                            });
                        }
                    };
                    let t = clock.charge(Layer::Workloads, t);
                    let payload = (op == OramOp::Write).then(|| Payload::from_u64(pa.0));
                    let result = oram.access(pa, op, payload)?;
                    let t = clock.charge(Layer::Oram, t);
                    for line in &result.prefetched {
                        llc.fill_line(line.0);
                    }
                    let stage_end = clock.charge(Layer::Workloads, t);
                    counts.plans += 1;
                    counts.plan_traffic += result.plan.total_traffic() as u64;
                    spans.push(Span {
                        kind: SpanKind::Stage,
                        request_id: result.plan.request_id,
                        start_ns: stage_start,
                        end_ns: stage_end,
                    });
                    in_flight.push(InFlight {
                        request_id: result.plan.request_id,
                        is_dummy: false,
                        arrived_at: arrival.map(|a| a.arrived_at),
                    });
                    pending_plan = Some(result.plan);
                    submitted += 1;
                }
            }
        }

        if let Some(plan) = pending_plan.take() {
            let request_id = plan.request_id;
            let t = clock.now_ns();
            let outcome = controller.try_submit(plan, dram.cycle());
            let end = clock.charge(Layer::Submit, t);
            counts.submit_attempts += 1;
            match outcome {
                Ok(()) => spans.push(Span {
                    kind: SpanKind::Submit,
                    request_id,
                    start_ns: t,
                    end_ns: end,
                }),
                Err(plan) => {
                    counts.submit_rejects += 1;
                    pending_plan = Some(plan);
                }
            }
        }

        let t = clock.now_ns();
        let ctrl_activity = controller.tick(&mut dram);
        let t = clock.charge(Layer::Controller, t);
        let dram_result = dram.tick();
        let mut t = clock.charge(Layer::Dram, t);
        counts.controller_ticks += 1;
        counts.settled_ticks += u64::from(ctrl_activity.settled);
        counts.dram_ticks += 1;

        for finished in controller.drain_finished() {
            let Some(pos) = in_flight
                .iter()
                .position(|e| e.request_id == finished.request_id)
            else {
                return Err(OramError::InvalidParams {
                    reason: format!(
                        "controller retired request {} the traced driver never staged",
                        finished.request_id
                    ),
                });
            };
            let entry = in_flight.swap_remove(pos);
            if !entry.is_dummy {
                finished_real += 1;
            }
            if finished_real == warmup && !measuring {
                measuring = true;
                measure_start_cycle = dram.cycle();
                dram_at_start = dram.stats();
                ctrl_at_start = *controller.stats();
                if let Some(engine) = serving.as_mut() {
                    engine.advance(dram.cycle());
                }
            }
            if measuring && finished_real > warmup && !entry.is_dummy {
                latencies.push(finished.latency());
                if let Some(at) = entry.arrived_at {
                    queue_waits.push(finished.submitted_at.saturating_sub(at));
                }
            }
            let end = clock.charge(Layer::Retire, t);
            spans.push(Span {
                kind: SpanKind::Retire,
                request_id: finished.request_id,
                start_ns: t,
                end_ns: end,
            });
            t = end;
        }
        clock.charge(Layer::Retire, t);

        let t = clock.now_ns();
        let will_stage = pending_plan.is_none()
            && submitted < total_requests + config.measured_requests
            && (oram.needs_background_evict()
                || (submitted < total_requests
                    && serving.as_ref().is_none_or(|e| e.queue_len() > 0)));
        clock.charge(Layer::Oram, t);
        let quiescent = ctrl_activity.settled
            && !dram_result.completions
            && !will_stage
            && (!dram_result.issued || !controller.enqueue_blocked());
        let external_next = serving
            .as_ref()
            .filter(|_| submitted < total_requests)
            .and_then(|e| e.next_arrival_cycle(arrivals_advanced_to));
        let before = dram.cycle();
        let t = clock.now_ns();
        stepper.advance_idle(&mut controller, &mut dram, quiescent, external_next);
        clock.charge(Layer::Stepper, t);
        counts.stepper_calls += 1;
        if quiescent {
            counts.quiescent_calls += 1;
            let advanced = dram.cycle() - before;
            if advanced > 0 {
                counts.skip_windows += 1;
                counts.skipped_cycles += advanced;
            }
        }
    }

    let ctrl_end = *controller.stats();
    let dram_end = dram.stats();
    counts.total_cycles = dram.cycle();
    counts.real_requests = finished_real;
    counts.measured_requests = latencies.len() as u64;
    counts.stash_high_water = oram.stash_high_water() as u64;
    counts.llc_hits = llc.hits();
    counts.llc_misses = llc.misses();
    counts.controller_window = ControllerStats {
        cycles: ctrl_end.cycles - ctrl_at_start.cycles,
        issue_cycles: ctrl_end.issue_cycles - ctrl_at_start.issue_cycles,
        sync_stall_cycles: ctrl_end.sync_stall_cycles - ctrl_at_start.sync_stall_cycles,
        ..ControllerStats::default()
    };
    counts.dram_window = DramStats {
        cycles: dram_end.cycles - dram_at_start.cycles,
        reads: dram_end.reads - dram_at_start.reads,
        writes: dram_end.writes - dram_at_start.writes,
        row_hits: dram_end.row_hits - dram_at_start.row_hits,
        row_misses: dram_end.row_misses - dram_at_start.row_misses,
        row_conflicts: dram_end.row_conflicts - dram_at_start.row_conflicts,
        data_bus_busy_cycles: dram_end.data_bus_busy_cycles - dram_at_start.data_bus_busy_cycles,
        queue_occupancy_sum: dram_end.queue_occupancy_sum - dram_at_start.queue_occupancy_sum,
        read_latency_sum: dram_end.read_latency_sum - dram_at_start.read_latency_sum,
        channels: dram_end.channels,
    };
    Ok(Traced {
        cycles: dram.cycle() - measure_start_cycle,
        latencies,
        queue_waits,
        counts,
        layer_ns: clock.layer_ns,
        spans,
    })
}
