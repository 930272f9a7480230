//! The cycle-accurate 6-stage pipeline simulator.
//!
//! Micro-architectural model (mirroring the customized `mor1kx cappuccino`
//! of the paper's Fig. 4):
//!
//! * Six stages: Address, Fetch, Decode, Execute, Mem/Control, Writeback.
//! * Tightly-coupled single-cycle instruction and data SRAMs.
//! * Full operand forwarding (Control → Execute and Writeback → Execute);
//!   load results are forwarded from the control stage, which makes the
//!   data-SRAM → forwarding → ALU path one of the longest in the design —
//!   exactly the path the paper identifies as dominating the execute/control
//!   endpoint group.
//! * One architectural delay slot after every branch and jump.
//! * PC-relative jumps and conditional branches redirect the fetch address
//!   while they are in the decode stage (the branch-target feed-forward into
//!   the address-stage PC mux visible in Fig. 4), so taken branches cost no
//!   bubbles beyond the delay slot. Register-indirect jumps resolve in the
//!   execute stage and squash the two youngest fetch stages.
//! * The multiplier is shielded by operand-isolation registers: its inputs
//!   only toggle for multiply instructions.

use crate::digest::FastCycleFacts;
use crate::interp::alu;
use crate::irq::{is_mmio, InterruptController, InterruptPlan};
use crate::predecode::{self, MicroOp, PredecodedProgram};
use crate::{
    CycleObserver, CycleRecord, ExecActivity, IrqPhase, Memory, Occupant, PipelineError,
    PipelineTrace, RegisterFile, RunSummary, NOP_EXIT,
};
use idca_isa::{CtlKind, Insn, MemKind, Opcode, Program, Reg, INSN_BYTES};
use serde::{Deserialize, Serialize};

/// Configuration of the pipeline simulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Size of the tightly-coupled data SRAM in bytes.
    pub data_memory_size: usize,
    /// Hard limit on simulated cycles (guards against runaway programs).
    pub max_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            data_memory_size: 64 * 1024,
            max_cycles: 4_000_000,
        }
    }
}

/// Architectural state at the end of a simulation.
#[derive(Debug, Clone)]
pub struct ArchState {
    /// Final register-file contents.
    pub regs: RegisterFile,
    /// Final data-memory contents.
    pub memory: Memory,
    /// Final compare-flag value.
    pub flag: bool,
    /// Final carry-flag value.
    pub carry: bool,
}

impl ArchState {
    /// Convenience accessor for one register.
    #[must_use]
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs.read(reg)
    }
}

/// The outcome of running a program on the pipeline.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Final architectural state.
    pub state: ArchState,
    /// Per-cycle pipeline trace.
    pub trace: PipelineTrace,
}

/// The outcome of an observed (streaming) run: the final architectural state
/// plus the run totals. The per-cycle records went to the observers.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// Final architectural state.
    pub state: ArchState,
    /// Run totals (cycles simulated, instructions retired).
    pub summary: RunSummary,
}

/// Reusable per-worker simulation state: the register file and the data
/// memory image. Constructing these — in particular the 64 KiB memory —
/// from scratch for every simulated program is pure allocation churn on
/// sweep workers; a worker allocates one `SimBuffers` and passes it to
/// [`Simulator::run_observed_predecoded_with_buffers`] for every job
/// instead.
#[derive(Debug, Clone)]
pub struct SimBuffers {
    regs: RegisterFile,
    memory: Memory,
    flag: bool,
    carry: bool,
}

impl SimBuffers {
    /// Creates buffers sized for `config`'s data memory.
    #[must_use]
    pub fn for_config(config: &SimConfig) -> Self {
        SimBuffers {
            regs: RegisterFile::new(),
            memory: Memory::new(config.data_memory_size),
            flag: false,
            carry: false,
        }
    }

    /// Resets the buffers to the architectural reset state (all registers
    /// and memory zero), resizing the memory if `config` changed.
    fn reset_for(&mut self, config: &SimConfig) {
        self.regs.clear();
        self.memory.reset(config.data_memory_size);
        self.flag = false;
        self.carry = false;
    }

    /// The register file after the most recent **successful** run. After an
    /// erroring run the buffers hold the partially-executed state (see
    /// [`SimBuffers::flag`]).
    #[must_use]
    pub fn regs(&self) -> &RegisterFile {
        &self.regs
    }

    /// The data memory after the most recent **successful** run (partial
    /// state after an error, see [`SimBuffers::flag`]).
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// The compare flag after the most recent **successful** run. When
    /// [`Simulator::run_observed_predecoded_with_buffers`] returns an error
    /// the accessors are not a consistent architectural snapshot: registers
    /// and memory reflect the partial execution while the flags stay at
    /// their reset values.
    #[must_use]
    pub fn flag(&self) -> bool {
        self.flag
    }

    /// The carry flag after the most recent **successful** run (see
    /// [`SimBuffers::flag`] for the error-path caveat).
    #[must_use]
    pub fn carry(&self) -> bool {
        self.carry
    }
}

/// The cycle-accurate pipeline simulator.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    config: SimConfig,
    interrupts: Option<InterruptPlan>,
}

/// An instruction in the fetch, decode or execute latch. `op` is the
/// instruction word in the reference loop and its micro-op table index in
/// the predecoded loop, which recovers the word from the table only when it
/// builds a [`CycleRecord`].
#[derive(Debug, Clone, Copy)]
struct Fetched<I> {
    pc: u32,
    op: I,
    /// `Some(taken)` once decode resolved the instruction as a PC-relative
    /// jump or branch, so that the execute-stage activity can report it.
    branch_taken: Option<bool>,
}

#[derive(Debug, Clone, Copy)]
enum MemOp {
    Load { address: u32 },
    Store { address: u32, value: u32 },
}

impl MemOp {
    fn address(self) -> u32 {
        match self {
            MemOp::Load { address } | MemOp::Store { address, .. } => address,
        }
    }
}

/// An instruction past execute: the control latch, and one cycle later the
/// same entry as the writeback latch. `op` is as in [`Fetched`].
#[derive(Debug, Clone, Copy)]
struct Executed<I> {
    pc: u32,
    op: I,
    rd: Option<Reg>,
    value: u32,
    mem: Option<MemOp>,
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    #[must_use]
    pub fn new(config: SimConfig) -> Self {
        Simulator {
            config,
            interrupts: None,
        }
    }

    /// Attaches an interrupt scenario: every run drives one
    /// [`InterruptController`] built from `plan`, accepting storm/timer
    /// raises at the fetch boundary, injecting the modeled entry-flush
    /// bubbles, routing word accesses inside the MMIO window to the
    /// peripheral registers and resolving `l.rfe` back to the saved PC.
    ///
    /// The caller must run the handler-augmented program returned by the
    /// same [`InterruptPlan::attach`] call that produced `plan` — the plan's
    /// vector points into that image.
    #[must_use]
    pub fn with_interrupts(mut self, plan: InterruptPlan) -> Self {
        self.interrupts = Some(plan);
        self
    }

    /// The attached interrupt scenario, if any.
    #[must_use]
    pub fn interrupts(&self) -> Option<&InterruptPlan> {
        self.interrupts.as_ref()
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs `program` to completion and returns the final architectural
    /// state together with the full per-cycle trace.
    ///
    /// This is a convenience wrapper around [`Simulator::run_observed`] with
    /// a single materializing [`PipelineTrace`] observer; analysis pipelines
    /// that do not need the materialized records should call
    /// [`Simulator::run_observed`] with streaming observers instead.
    ///
    /// A program terminates when the exit marker `l.nop 1` retires, or when
    /// the pipeline drains after the program counter runs past the end of
    /// the image.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] for invalid memory accesses or when
    /// [`SimConfig::max_cycles`] is exceeded.
    pub fn run(&self, program: &Program) -> Result<SimResult, PipelineError> {
        let mut trace = PipelineTrace::default();
        let run = self.run_observed(program, &mut [&mut trace])?;
        Ok(SimResult {
            state: run.state,
            trace,
        })
    }

    /// Runs `program` to completion, streaming every [`CycleRecord`] to the
    /// given observers as it is produced — the single-pass entry point of
    /// the analysis pipeline. No per-cycle storage is allocated; composing
    /// observers (timing analysis, clock-policy evaluation, power activity,
    /// trace materialization, ...) makes one simulation serve them all.
    ///
    /// Each observer receives one [`CycleObserver::observe_cycle`] call per
    /// simulated cycle in execution order, then exactly one
    /// [`CycleObserver::finish`] call with the run totals.
    ///
    /// # Example
    ///
    /// Run one simulation with two observers riding the same pass — a
    /// digest capture and a full trace — and check they saw the same run:
    ///
    /// ```
    /// use idca_isa::asm::Assembler;
    /// use idca_pipeline::{DigestObserver, PipelineTrace, SimConfig, Simulator};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let program = Assembler::new().assemble(
    ///     "l.addi r3, r0, 5\nloop: l.addi r3, r3, -1\n l.sfne r3, r0\n l.bf loop\n l.nop 0\n l.nop 1\n",
    /// )?;
    /// let mut digest = DigestObserver::new();
    /// let mut trace = PipelineTrace::default();
    /// let run = Simulator::new(SimConfig::default())
    ///     .run_observed(&program, &mut [&mut digest, &mut trace])?;
    ///
    /// assert_eq!(trace.cycle_count(), run.summary.cycles);
    /// assert_eq!(digest.into_digest().cycles(), run.summary.cycles);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] for invalid memory accesses or when
    /// [`SimConfig::max_cycles`] is exceeded. Observers may have consumed an
    /// arbitrary prefix of the run when an error is returned; `finish` is
    /// not called in that case.
    pub fn run_observed(
        &self,
        program: &Program,
        observers: &mut [&mut dyn CycleObserver],
    ) -> Result<ObservedRun, PipelineError> {
        self.run_observed_predecoded(&PredecodedProgram::lower(program), observers)
    }

    /// [`Simulator::run_observed`] for a program already lowered to its
    /// [`PredecodedProgram`] form. Callers that run the same program many
    /// times (bench repetitions, differential fuzzing) lower once and reuse
    /// the table.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] like [`Simulator::run_observed`].
    pub fn run_observed_predecoded(
        &self,
        pre: &PredecodedProgram,
        observers: &mut [&mut dyn CycleObserver],
    ) -> Result<ObservedRun, PipelineError> {
        self.run_fresh(|buffers| self.run_core_pre(pre, observers, buffers))
    }

    /// [`Simulator::run_observed`] on the retained per-cycle reference loop:
    /// every stage re-derives its facts from the instruction word each cycle
    /// instead of dispatching from the predecoded micro-op table. Exists so
    /// differential tests can pin the predecoded engine bit-identical
    /// (same [`CycleRecord`] stream, digests and summaries) against the
    /// original formulation.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] like [`Simulator::run_observed`].
    pub fn run_observed_reference(
        &self,
        program: &Program,
        observers: &mut [&mut dyn CycleObserver],
    ) -> Result<ObservedRun, PipelineError> {
        self.run_fresh(|buffers| self.run_core(program, observers, buffers))
    }

    /// [`Simulator::run_observed_predecoded`] with caller-owned scratch
    /// state: the register file and memory image in `buffers` are reset and
    /// reused instead of being allocated per run, which removes the dominant
    /// allocation churn from workers that simulate many programs (e.g. the
    /// PVT-sweep digest phase). The final architectural state stays
    /// readable through the [`SimBuffers`] accessors.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] like [`Simulator::run_observed`].
    pub fn run_observed_predecoded_with_buffers(
        &self,
        pre: &PredecodedProgram,
        observers: &mut [&mut dyn CycleObserver],
        buffers: &mut SimBuffers,
    ) -> Result<RunSummary, PipelineError> {
        buffers.reset_for(&self.config);
        self.run_core_pre(pre, observers, buffers)
    }

    /// Runs one engine loop on freshly allocated buffers and returns their
    /// final state with the run totals.
    fn run_fresh(
        &self,
        run: impl FnOnce(&mut SimBuffers) -> Result<RunSummary, PipelineError>,
    ) -> Result<ObservedRun, PipelineError> {
        let mut buffers = SimBuffers::for_config(&self.config);
        let summary = run(&mut buffers)?;
        Ok(ObservedRun {
            state: ArchState {
                regs: buffers.regs,
                memory: buffers.memory,
                flag: buffers.flag,
                carry: buffers.carry,
            },
            summary,
        })
    }

    /// An attached plan must vector into the program image `[base, end)`:
    /// an entry outside it would drain the run at its first interrupt and
    /// score the run as complete.
    fn check_vector(&self, base: u32, end: u32) -> Result<(), PipelineError> {
        match self.interrupts {
            Some(plan) if !(base..end).contains(&plan.vector()) => {
                Err(PipelineError::PcOutOfRange { pc: plan.vector() })
            }
            _ => Ok(()),
        }
    }

    /// The per-cycle reference loop behind
    /// [`Simulator::run_observed_reference`]. Expects `buffers` in the
    /// architectural reset state.
    fn run_core(
        &self,
        program: &Program,
        observers: &mut [&mut dyn CycleObserver],
        buffers: &mut SimBuffers,
    ) -> Result<RunSummary, PipelineError> {
        let regs = &mut buffers.regs;
        let memory = &mut buffers.memory;
        memory.load_image(program.data())?;
        let mut flag = false;
        let mut carry = false;

        let base = program.base_address();
        let end = program.end_address();
        self.check_vector(base, end)?;
        let in_range = |pc: u32| pc >= base && pc < end;
        // Hardened fetch: a register jump can put any value in the PC, so a
        // misaligned in-range address must become a structured error, never
        // a silently-truncated index (out-of-range addresses drain the
        // pipeline before reaching this accessor).
        let fetch_insn = |pc: u32| -> Result<Insn, PipelineError> {
            let index = program
                .insn_index(pc)
                .ok_or(PipelineError::PcOutOfRange { pc })?;
            Ok(program.insns()[index])
        };

        let mut fetch_pc = base;
        let mut fe: Option<Fetched<Insn>> = None;
        let mut dc: Option<Fetched<Insn>> = None;
        let mut ex: Option<Fetched<Insn>> = None;
        let mut ctrl: Option<Executed<Insn>> = None;
        let mut wb: Option<Executed<Insn>> = None;

        let mut halting = false;
        let mut seq_counter: u64 = 0;
        let mut retired: u64 = 0;
        let mut cycle_count: u64 = 0;
        let mut irq = self.interrupts.as_ref().map(InterruptController::new);

        for cycle in 0..self.config.max_cycles {
            if let Some(ctl) = irq.as_mut() {
                ctl.begin_cycle(cycle);
            }

            // -------------------------------------------------------------
            // Writeback stage: commit the oldest instruction. Every slot
            // younger than the exit marker drains behind it, so the only
            // exit marker that reaches writeback is the one that halted
            // the pipeline.
            // -------------------------------------------------------------
            let mut writeback = None;
            let mut finished = false;
            if let Some(entry) = wb {
                if let Some(rd) = entry.rd {
                    regs.write(rd, entry.value);
                    writeback = Some(entry.value);
                }
                retired += 1;
                finished = is_exit(&entry.op);
            }

            // -------------------------------------------------------------
            // Mem/Control stage: perform the data-memory access in program
            // order; load data becomes available here and is forwarded to
            // the execute stage within the same cycle.
            // -------------------------------------------------------------
            let mut mem_return = None;
            let mut ctrl_entry = ctrl;
            if let Some(entry) = &mut ctrl_entry {
                match entry.mem {
                    Some(MemOp::Store { address, value }) => {
                        store(memory, irq.as_mut(), entry.op.opcode(), address, value)?;
                    }
                    Some(MemOp::Load { address }) => {
                        let value = load(memory, irq.as_mut(), entry.op.opcode(), address)?;
                        entry.value = value;
                        mem_return = Some(value);
                    }
                    None => {}
                }
            }

            // -------------------------------------------------------------
            // Execute stage.
            // -------------------------------------------------------------
            let mut exec_activity = None;
            let mut ex_redirect: Option<u32> = None;
            let next_ctrl = match ex {
                None => None,
                Some(fetched) => {
                    let insn = fetched.op;
                    let opcode = insn.opcode();

                    if is_exit(&insn) {
                        halting = true;
                    }

                    let (a, fwd_a) = resolve_operand(insn.ra(), &ctrl_entry, &wb, regs);
                    let (rb_value, fwd_b) = resolve_operand(insn.rb(), &ctrl_entry, &wb, regs);
                    let b = alu::operand_b(&insn, rb_value);
                    let outcome = alu::execute(&insn, a, b, flag, carry);

                    if let Some(new_flag) = outcome.flag {
                        flag = new_flag;
                    }
                    if let Some(new_carry) = outcome.carry {
                        carry = new_carry;
                    }

                    let mut value = outcome.result;
                    let mut rd = if opcode.writes_rd() { insn.rd() } else { None };
                    let mut branch_taken = fetched.branch_taken;
                    match opcode {
                        Opcode::Jal => {
                            rd = Some(Reg::LINK);
                            value = fetched.pc.wrapping_add(8);
                        }
                        Opcode::Jalr | Opcode::Jr => {
                            if opcode == Opcode::Jalr {
                                rd = Some(Reg::LINK);
                                value = fetched.pc.wrapping_add(8);
                            }
                            ex_redirect = Some(rb_value);
                            branch_taken = Some(true);
                        }
                        Opcode::Rfe => {
                            // Return-from-exception resolves in execute like
                            // a register jump targeting the saved PC. A
                            // stray `l.rfe` outside an active handler (or
                            // with no interrupt scenario attached) is a
                            // no-op, identically in every engine.
                            if let Some(target) =
                                irq.as_mut().and_then(|ctl| ctl.rfe_retire(seq_counter))
                            {
                                ex_redirect = Some(target);
                                branch_taken = Some(true);
                            }
                        }
                        _ => {}
                    }

                    let mem = match opcode {
                        op if op.is_load() => Some(MemOp::Load {
                            address: outcome.address.unwrap_or(0),
                        }),
                        op if op.is_store() => Some(MemOp::Store {
                            address: outcome.address.unwrap_or(0),
                            value: rb_value,
                        }),
                        _ => None,
                    };

                    exec_activity = Some(ExecActivity {
                        op_a: a,
                        op_b: b,
                        result: value,
                        carry_chain: adder_chain(opcode, a, b, carry),
                        mul_active: matches!(opcode, Opcode::Mul | Opcode::Mulu | Opcode::Muli),
                        mul_bits: mul_bits(opcode, a, b),
                        shift_amount: shift_amount(opcode, b),
                        forwarded: fwd_a || fwd_b,
                        branch_taken,
                        mem_address: mem.map(MemOp::address),
                    });

                    Some(Executed {
                        pc: fetched.pc,
                        op: insn,
                        rd,
                        value,
                        mem,
                    })
                }
            };

            // -------------------------------------------------------------
            // Decode stage: resolve PC-relative jumps and conditional
            // branches (the flag produced by the execute stage this cycle is
            // already visible, modelling the forwarding path into the branch
            // logic).
            // -------------------------------------------------------------
            let mut dc_redirect: Option<u32> = None;
            let mut dc_out = dc;
            if let Some(fetched) = &mut dc_out {
                let taken = match fetched.op.opcode() {
                    Opcode::J | Opcode::Jal => Some(true),
                    Opcode::Bf => Some(flag),
                    Opcode::Bnf => Some(!flag),
                    _ => None,
                };
                if let Some(taken) = taken {
                    let target = fetched
                        .pc
                        .wrapping_add((fetched.op.imm().unwrap_or(0) as u32).wrapping_mul(4));
                    fetched.branch_taken = Some(taken);
                    if taken {
                        dc_redirect = Some(target);
                    }
                }
            }

            // -------------------------------------------------------------
            // Fetch / address stage: present the instruction-memory address
            // (possibly redirected by the decode stage this very cycle) and
            // capture the fetched word for the next cycle.
            // -------------------------------------------------------------
            let effective_fetch = dc_redirect.unwrap_or(fetch_pc);
            let mut fetch_redirected = dc_redirect.is_some() || ex_redirect.is_some();
            let mut fetch_address = effective_fetch;

            // Exception entry: accept a pending interrupt at the fetch
            // boundary (the in-flight plain instructions retire normally;
            // the not-yet-fetched one becomes the saved PC), or keep
            // injecting the remaining entry-flush bubble cycles.
            let mut irq_entry_cycle = false;
            if let Some(ctl) = irq.as_mut() {
                if ctl.entry_pending() {
                    ctl.entry_tick();
                    irq_entry_cycle = true;
                    fetch_address = ctl.vector();
                } else if !halting
                    && dc_redirect.is_none()
                    && ex_redirect.is_none()
                    && ctl.takeable()
                    && in_range(effective_fetch)
                    && slot_plain(fe.as_ref())
                    && slot_plain(dc_out.as_ref())
                {
                    ctl.accept(effective_fetch, seq_counter)?;
                    irq_entry_cycle = true;
                    fetch_address = ctl.vector();
                    fetch_redirected = true;
                }
            }

            // One lookup of the fetched word serves the new fetch latch
            // (unless execute redirects) and the address-stage occupant
            // (unless decode redirects).
            let fetched = if !irq_entry_cycle
                && !halting
                && in_range(effective_fetch)
                && (ex_redirect.is_none() || dc_redirect.is_none())
            {
                Some(fetch_insn(effective_fetch)?)
            } else {
                None
            };
            let new_fe = match fetched {
                Some(op) if ex_redirect.is_none() => {
                    seq_counter += 1;
                    Some(Fetched {
                        pc: effective_fetch,
                        op,
                        branch_taken: None,
                    })
                }
                _ => None,
            };

            // -------------------------------------------------------------
            // Record this cycle.
            // -------------------------------------------------------------
            let adr = if irq_entry_cycle {
                None
            } else if dc_redirect.is_some() {
                // The control-flow instruction drives the long branch-target
                // path into the instruction-memory address register this
                // cycle, so it owns the address-stage endpoint group.
                dc_out.map(|f| (f.pc, f.op))
            } else {
                fetched.map(|op| (effective_fetch, op))
            };

            let record = CycleRecord {
                cycle,
                stages: [
                    occupant(adr),
                    occupant(fe.map(|f| (f.pc, f.op))),
                    occupant(dc_out.map(|f| (f.pc, f.op))),
                    occupant(ex.map(|f| (f.pc, f.op))),
                    occupant(ctrl_entry.map(|e| (e.pc, e.op))),
                    occupant(wb.map(|e| (e.pc, e.op))),
                ],
                exec: exec_activity,
                mem_return,
                writeback,
                fetch_address,
                fetch_redirected,
                irq_phase: irq_phase_of(irq.as_ref(), irq_entry_cycle),
            };
            cycle_count += 1;
            for observer in observers.iter_mut() {
                observer.observe_cycle(&record);
            }
            drain_events(irq.as_mut(), observers);

            if finished {
                break;
            }

            // -------------------------------------------------------------
            // Latch update.
            // -------------------------------------------------------------
            wb = ctrl_entry;
            ctrl = next_ctrl;
            if halting {
                // Instructions younger than the exit marker never execute
                // (they are architecturally after the end of the program),
                // matching the reference interpreter.
                ex = None;
                dc = None;
                fe = None;
            } else {
                ex = dc_out;
                dc = if ex_redirect.is_some() { None } else { fe };
                fe = new_fe;
            }

            if irq_entry_cycle {
                // Fetch parks on the handler vector for the whole entry
                // flush; the first post-entry cycle fetches the handler.
                fetch_pc = fetch_address;
            } else if let Some(target) = ex_redirect {
                fetch_pc = target;
            } else if let Some(target) = dc_redirect {
                fetch_pc = target.wrapping_add(INSN_BYTES);
            } else if !halting && in_range(effective_fetch) {
                fetch_pc = effective_fetch.wrapping_add(INSN_BYTES);
            }

            // Natural drain: the program ran past its last instruction and
            // the pipeline is now empty.
            if !halting
                && !in_range(fetch_pc)
                && fe.is_none()
                && dc.is_none()
                && ex.is_none()
                && ctrl.is_none()
                && wb.is_none()
            {
                break;
            }
        }

        if cycle_count >= self.config.max_cycles {
            return Err(PipelineError::CycleLimitExceeded {
                limit: self.config.max_cycles,
            });
        }

        let summary = RunSummary {
            cycles: cycle_count,
            retired,
        };
        for observer in observers.iter_mut() {
            observer.finish(&summary);
        }
        buffers.flag = flag;
        buffers.carry = carry;
        Ok(summary)
    }

    /// The predecoded simulation loop: structurally the same cycle as
    /// [`Simulator::run_core`], but every per-cycle fact comes from the
    /// [`MicroOp`] table instead of being re-derived from the instruction
    /// word. When a hinted [`DigestObserver`](crate::DigestObserver) is the
    /// only observer (the fused capture), hazard-free basic-block interiors
    /// run as bursts with the latch unwrapping and control-flow checks
    /// hoisted out of the loop, folding compact [`FastCycleFacts`] into the
    /// digest instead of materializing a [`CycleRecord`] per cycle.
    /// Bit-identical to the reference loop — same [`CycleRecord`] stream,
    /// digests and errors — pinned by the differential suite.
    #[allow(clippy::too_many_lines)]
    fn run_core_pre(
        &self,
        pre: &PredecodedProgram,
        observers: &mut [&mut dyn CycleObserver],
        buffers: &mut SimBuffers,
    ) -> Result<RunSummary, PipelineError> {
        let regs = &mut buffers.regs;
        let memory = &mut buffers.memory;
        memory.load_image(pre.data())?;
        let mut flag = false;
        let mut carry = false;

        let base = pre.base_address();
        let end = pre.end_address();
        self.check_vector(base, end)?;
        let ops = pre.ops();
        let n_ops = ops.len() as u32;
        let in_range = |pc: u32| pc >= base && pc < end;
        let occupant_at =
            |at: Option<(u32, u32)>| occupant(at.map(|(pc, idx)| (pc, ops[idx as usize].insn)));

        let mut fetch_pc = base;
        let mut fe: Option<Fetched<u32>> = None;
        let mut dc: Option<Fetched<u32>> = None;
        let mut ex: Option<Fetched<u32>> = None;
        let mut ctrl: Option<Executed<u32>> = None;
        let mut wb: Option<Executed<u32>> = None;

        let mut halting = false;
        let mut seq_counter: u64 = 0;
        let mut retired: u64 = 0;
        let mut cycle_count: u64 = 0;
        let mut irq = self.interrupts.as_ref().map(InterruptController::new);
        // Only a lone hinted digest capture takes the burst path; every
        // other observer set runs the reference-structured cycle below.
        let fused_digest = observers.len() == 1 && observers[0].as_hinted_digest().is_some();

        while cycle_count < self.config.max_cycles {
            // -------------------------------------------------------------
            // Basic-block fast path: while the three youngest stages hold
            // plain (non-control, non-exit) micro-ops and fetch runs inside
            // a runway of plain ops, nothing can redirect or halt, so the
            // per-cycle dispatch reduces to table walks. The window holds
            // [execute, decode, fetch] oldest-first.
            // -------------------------------------------------------------
            if fused_digest && !halting {
                if let (Some(xe), Some(xd), Some(xf)) = (&ex, &dc, &fe) {
                    if ops[xe.op as usize].is_plain()
                        && ops[xd.op as usize].is_plain()
                        && ops[xf.op as usize].is_plain()
                        && in_range(fetch_pc)
                        && (fetch_pc - base).is_multiple_of(INSN_BYTES)
                    {
                        let fi = (fetch_pc - base) / INSN_BYTES;
                        // k cycles are hazard-free when the k-2 ops fetched
                        // behind the current window (those that reach decode
                        // within the window) are plain, fetch stays in the
                        // image, and the cycle budget allows it.
                        let mut k = u64::from(pre.runway(fi).saturating_add(2))
                            .min(u64::from(n_ops - fi))
                            .min(self.config.max_cycles - cycle_count);
                        if let Some(ctl) = irq.as_ref() {
                            // Burst-abort on pending interrupt: cap the
                            // burst so no acceptance point can land inside
                            // it (capped cycles fall back to the
                            // reference-structured cycle, which makes the
                            // identical accept decision).
                            k = k.min(ctl.burst_allowance(cycle_count, k));
                        }
                        if k >= 4 {
                            let digest = observers[0].as_hinted_digest().expect("checked at entry");
                            let mut window = [*xe, *xd, *xf];
                            for j in 0..k {
                                let fetch_idx = fi + j as u32;
                                let fetch_addr = base + fetch_idx * INSN_BYTES;
                                if let Some(ctl) = irq.as_mut() {
                                    ctl.begin_cycle(cycle_count);
                                }

                                let mut wb_value = None;
                                if let Some(entry) = &wb {
                                    if let Some(rd) = entry.rd {
                                        regs.write(rd, entry.value);
                                        wb_value = Some(entry.value);
                                    }
                                    retired += 1;
                                }

                                let mut mem_return = None;
                                let mut ctrl_entry = ctrl;
                                if let Some(entry) = &mut ctrl_entry {
                                    match entry.mem {
                                        Some(MemOp::Store { address, value }) => {
                                            store_pre(
                                                memory,
                                                irq.as_mut(),
                                                &ops[entry.op as usize],
                                                address,
                                                value,
                                            )?;
                                        }
                                        Some(MemOp::Load { address }) => {
                                            let value = load_pre(
                                                memory,
                                                irq.as_mut(),
                                                &ops[entry.op as usize],
                                                address,
                                            )?;
                                            entry.value = value;
                                            mem_return = Some(value);
                                        }
                                        None => {}
                                    }
                                }

                                let exe = window[0];
                                let op = &ops[exe.op as usize];
                                let (a, fwd_a) = resolve_operand(op.ra, &ctrl_entry, &wb, regs);
                                let (rb_value, fwd_b) =
                                    resolve_operand(op.rb, &ctrl_entry, &wb, regs);
                                let b = op.op_b_imm.unwrap_or(rb_value);
                                let outcome = predecode::exec_alu(op.alu, a, b, flag, carry);
                                if let Some(new_flag) = outcome.flag {
                                    flag = new_flag;
                                }
                                if let Some(new_carry) = outcome.carry {
                                    carry = new_carry;
                                }
                                let value = outcome.result;
                                let mem = mem_op_for(op, &outcome, rb_value);
                                let next_ctrl = Some(Executed {
                                    pc: exe.pc,
                                    op: exe.op,
                                    rd: op.rd,
                                    value,
                                    mem,
                                });

                                seq_counter += 1;

                                digest.observe_fast_cycle(&FastCycleFacts {
                                    fetch_address: fetch_addr,
                                    adr_idx: fetch_idx,
                                    fe_idx: window[2].op,
                                    dc_idx: window[1].op,
                                    ex_idx: exe.op,
                                    ctrl_idx: ctrl_entry.map(|e| e.op),
                                    wb_idx: wb.map(|e| e.op),
                                    mem_return,
                                    wb_value,
                                    exec: exec_activity_pre(
                                        op,
                                        a,
                                        b,
                                        value,
                                        carry,
                                        fwd_a || fwd_b,
                                        mem,
                                    ),
                                });
                                if let Some(ctl) = irq.as_mut() {
                                    for event in ctl.cycle_events() {
                                        digest.observe_event(event);
                                    }
                                    ctl.clear_cycle_events();
                                }
                                cycle_count += 1;

                                wb = ctrl_entry;
                                ctrl = next_ctrl;
                                window[0] = window[1];
                                window[1] = window[2];
                                window[2] = Fetched {
                                    pc: fetch_addr,
                                    op: fetch_idx,
                                    branch_taken: None,
                                };
                            }
                            ex = Some(window[0]);
                            dc = Some(window[1]);
                            fe = Some(window[2]);
                            fetch_pc = base + (fi + k as u32) * INSN_BYTES;
                            continue;
                        }
                    }
                }
            }

            // -------------------------------------------------------------
            // Reference-structured cycle (block boundaries, redirects,
            // drains, halts) — micro-op-driven twin of `run_core`'s body.
            // -------------------------------------------------------------
            if let Some(ctl) = irq.as_mut() {
                // Exactly once per cycle: the burst path above ticked the
                // controller per burst cycle and `continue`d.
                ctl.begin_cycle(cycle_count);
            }
            let mut writeback = None;
            let mut finished = false;
            if let Some(entry) = wb {
                if let Some(rd) = entry.rd {
                    regs.write(rd, entry.value);
                    writeback = Some(entry.value);
                }
                retired += 1;
                finished = ops[entry.op as usize].ctl == CtlKind::Exit;
            }

            let mut mem_return = None;
            let mut ctrl_entry = ctrl;
            if let Some(entry) = &mut ctrl_entry {
                match entry.mem {
                    Some(MemOp::Store { address, value }) => {
                        store_pre(
                            memory,
                            irq.as_mut(),
                            &ops[entry.op as usize],
                            address,
                            value,
                        )?;
                    }
                    Some(MemOp::Load { address }) => {
                        let value =
                            load_pre(memory, irq.as_mut(), &ops[entry.op as usize], address)?;
                        entry.value = value;
                        mem_return = Some(value);
                    }
                    None => {}
                }
            }

            let mut exec_activity = None;
            let mut ex_redirect: Option<u32> = None;
            let next_ctrl = match ex {
                None => None,
                Some(fetched) => {
                    let op = &ops[fetched.op as usize];

                    if op.ctl == CtlKind::Exit {
                        halting = true;
                    }

                    let (a, fwd_a) = resolve_operand(op.ra, &ctrl_entry, &wb, regs);
                    let (rb_value, fwd_b) = resolve_operand(op.rb, &ctrl_entry, &wb, regs);
                    let b = op.op_b_imm.unwrap_or(rb_value);
                    let outcome = predecode::exec_alu(op.alu, a, b, flag, carry);

                    if let Some(new_flag) = outcome.flag {
                        flag = new_flag;
                    }
                    if let Some(new_carry) = outcome.carry {
                        carry = new_carry;
                    }

                    let mut value = outcome.result;
                    let mut rd = op.rd;
                    let mut branch_taken = fetched.branch_taken;
                    match op.ctl {
                        CtlKind::Jump { link: true } => {
                            rd = Some(Reg::LINK);
                            value = fetched.pc.wrapping_add(8);
                        }
                        CtlKind::JumpReg { link } => {
                            if link {
                                rd = Some(Reg::LINK);
                                value = fetched.pc.wrapping_add(8);
                            }
                            ex_redirect = Some(rb_value);
                            branch_taken = Some(true);
                        }
                        CtlKind::Rfe => {
                            // Twin of the reference loop's `Opcode::Rfe`
                            // arm: resolve to the saved PC, or no-op when
                            // no handler is active.
                            if let Some(target) =
                                irq.as_mut().and_then(|ctl| ctl.rfe_retire(seq_counter))
                            {
                                ex_redirect = Some(target);
                                branch_taken = Some(true);
                            }
                        }
                        _ => {}
                    }

                    let mem = mem_op_for(op, &outcome, rb_value);
                    exec_activity = Some(ExecActivity {
                        branch_taken,
                        ..exec_activity_pre(op, a, b, value, carry, fwd_a || fwd_b, mem)
                    });

                    Some(Executed {
                        pc: fetched.pc,
                        op: fetched.op,
                        rd,
                        value,
                        mem,
                    })
                }
            };

            let mut dc_redirect: Option<u32> = None;
            let mut dc_out = dc;
            if let Some(fetched) = &mut dc_out {
                let op = &ops[fetched.op as usize];
                let taken = match op.ctl {
                    CtlKind::Jump { .. } => Some(true),
                    CtlKind::BranchIfFlag => Some(flag),
                    CtlKind::BranchIfNotFlag => Some(!flag),
                    _ => None,
                };
                if let Some(taken) = taken {
                    fetched.branch_taken = Some(taken);
                    if taken {
                        dc_redirect = Some(fetched.pc.wrapping_add(op.branch_disp));
                    }
                }
            }

            let effective_fetch = dc_redirect.unwrap_or(fetch_pc);
            let mut fetch_redirected = dc_redirect.is_some() || ex_redirect.is_some();
            let mut fetch_address = effective_fetch;

            // Exception entry — twin of the reference loop's accept logic.
            let mut irq_entry_cycle = false;
            if let Some(ctl) = irq.as_mut() {
                if ctl.entry_pending() {
                    ctl.entry_tick();
                    irq_entry_cycle = true;
                    fetch_address = ctl.vector();
                } else if !halting
                    && dc_redirect.is_none()
                    && ex_redirect.is_none()
                    && ctl.takeable()
                    && in_range(effective_fetch)
                    && slot_plain_op(ops, fe.as_ref())
                    && slot_plain_op(ops, dc_out.as_ref())
                {
                    ctl.accept(effective_fetch, seq_counter)?;
                    irq_entry_cycle = true;
                    fetch_address = ctl.vector();
                    fetch_redirected = true;
                }
            }

            // One lookup, under the reference loop's union of guards.
            let fetched = if !irq_entry_cycle
                && !halting
                && in_range(effective_fetch)
                && (ex_redirect.is_none() || dc_redirect.is_none())
            {
                Some(pre.fetch_index(effective_fetch)?)
            } else {
                None
            };
            let new_fe = match fetched {
                Some(idx) if ex_redirect.is_none() => {
                    seq_counter += 1;
                    Some(Fetched {
                        pc: effective_fetch,
                        op: idx,
                        branch_taken: None,
                    })
                }
                _ => None,
            };

            let adr = if irq_entry_cycle {
                None
            } else if dc_redirect.is_some() {
                dc_out.map(|f| (f.pc, f.op))
            } else {
                fetched.map(|idx| (effective_fetch, idx))
            };

            let record = CycleRecord {
                cycle: cycle_count,
                stages: [
                    occupant_at(adr),
                    occupant_at(fe.map(|f| (f.pc, f.op))),
                    occupant_at(dc_out.map(|f| (f.pc, f.op))),
                    occupant_at(ex.map(|f| (f.pc, f.op))),
                    occupant_at(ctrl_entry.map(|e| (e.pc, e.op))),
                    occupant_at(wb.map(|e| (e.pc, e.op))),
                ],
                exec: exec_activity,
                mem_return,
                writeback,
                fetch_address,
                fetch_redirected,
                irq_phase: irq_phase_of(irq.as_ref(), irq_entry_cycle),
            };
            cycle_count += 1;
            for observer in observers.iter_mut() {
                observer.observe_cycle(&record);
            }
            drain_events(irq.as_mut(), observers);

            if finished {
                break;
            }

            wb = ctrl_entry;
            ctrl = next_ctrl;
            if halting {
                ex = None;
                dc = None;
                fe = None;
            } else {
                ex = dc_out;
                dc = if ex_redirect.is_some() { None } else { fe };
                fe = new_fe;
            }

            if irq_entry_cycle {
                fetch_pc = fetch_address;
            } else if let Some(target) = ex_redirect {
                fetch_pc = target;
            } else if let Some(target) = dc_redirect {
                fetch_pc = target.wrapping_add(INSN_BYTES);
            } else if !halting && in_range(effective_fetch) {
                fetch_pc = effective_fetch.wrapping_add(INSN_BYTES);
            }

            if !halting
                && !in_range(fetch_pc)
                && fe.is_none()
                && dc.is_none()
                && ex.is_none()
                && ctrl.is_none()
                && wb.is_none()
            {
                break;
            }
        }

        if cycle_count >= self.config.max_cycles {
            return Err(PipelineError::CycleLimitExceeded {
                limit: self.config.max_cycles,
            });
        }

        let summary = RunSummary {
            cycles: cycle_count,
            retired,
        };
        for observer in observers.iter_mut() {
            observer.finish(&summary);
        }
        buffers.flag = flag;
        buffers.carry = carry;
        Ok(summary)
    }
}

/// `true` for the `l.nop 1` exit marker (the reference loop's twin of
/// [`CtlKind::Exit`]).
fn is_exit(insn: &Insn) -> bool {
    insn.opcode() == Opcode::Nop && insn.imm() == Some(i32::from(NOP_EXIT))
}

/// `true` when the reference-engine slot holds a bubble or a *plain*
/// instruction — no control flow, not the exit marker. The interrupt-accept
/// guard requires plain-or-bubble fetch/decode slots so that nothing
/// in flight can redirect or halt during the entry flush; this is the
/// reference-engine twin of [`MicroOp::is_plain`] (pinned equivalent by the
/// differential suite).
fn slot_plain(slot: Option<&Fetched<Insn>>) -> bool {
    slot.is_none_or(|f| {
        !(matches!(
            f.op.opcode(),
            Opcode::J
                | Opcode::Jal
                | Opcode::Jr
                | Opcode::Jalr
                | Opcode::Bf
                | Opcode::Bnf
                | Opcode::Rfe
        ) || is_exit(&f.op))
    })
}

/// Predecoded-engine twin of [`slot_plain`].
fn slot_plain_op(ops: &[MicroOp], slot: Option<&Fetched<u32>>) -> bool {
    slot.is_none_or(|f| ops[f.op as usize].is_plain())
}

/// The live interrupt phase of the cycle being recorded: entry-flush cycles
/// (accept plus the injected bubbles), then handler cycles up to and
/// including the one where `l.rfe` resolved. Digest replay re-derives the
/// identical classification from the event stream.
fn irq_phase_of(ctl: Option<&InterruptController>, entry_cycle: bool) -> IrqPhase {
    match ctl {
        Some(_) if entry_cycle => IrqPhase::Entry,
        Some(ctl) if ctl.in_handler() || ctl.returned_this_cycle() => IrqPhase::Handler,
        _ => IrqPhase::None,
    }
}

/// Streams the controller's per-cycle events to every observer (after the
/// cycle's `observe_cycle`, in within-cycle order) and clears them.
fn drain_events(irq: Option<&mut InterruptController>, observers: &mut [&mut dyn CycleObserver]) {
    let Some(ctl) = irq else { return };
    for i in 0..ctl.cycle_events().len() {
        let event = ctl.cycle_events()[i];
        for observer in observers.iter_mut() {
            observer.observe_event(&event);
        }
    }
    ctl.clear_cycle_events();
}

/// The record occupant of a stage holding the instruction `insn` at `pc`,
/// or a bubble.
fn occupant(at: Option<(u32, Insn)>) -> Occupant {
    match at {
        Some((pc, insn)) => Occupant::Insn { pc, insn },
        None => Occupant::Bubble,
    }
}

/// The execute stage's view of source register `reg`: the value forwarded
/// from the control latch, else from the writeback latch, else the register
/// file, and whether it was forwarded.
fn resolve_operand<I>(
    reg: Option<Reg>,
    ctrl: &Option<Executed<I>>,
    wb: &Option<Executed<I>>,
    regs: &RegisterFile,
) -> (u32, bool) {
    let Some(reg) = reg else { return (0, false) };
    if reg.is_zero() {
        return (0, false);
    }
    if let Some(entry) = ctrl {
        if entry.rd == Some(reg) {
            return (entry.value, true);
        }
    }
    if let Some(entry) = wb {
        if entry.rd == Some(reg) {
            return (entry.value, true);
        }
    }
    (regs.read(reg), false)
}

fn mem_op_for(op: &MicroOp, outcome: &alu::AluOutcome, rb_value: u32) -> Option<MemOp> {
    if op.mem.is_load() {
        Some(MemOp::Load {
            address: outcome.address.unwrap_or(0),
        })
    } else if op.mem.is_store() {
        Some(MemOp::Store {
            address: outcome.address.unwrap_or(0),
            value: rb_value,
        })
    } else {
        None
    }
}

/// The execute-stage activity of micro-op `op` on operands `a` and `b`,
/// latching `result`, with no branch resolved: the one builder of the burst
/// and the per-cycle predecoded path. `carry` is the carry flag after `op`
/// executed, as the reference loop's `adder_chain` reads it.
#[inline(always)]
fn exec_activity_pre(
    op: &MicroOp,
    a: u32,
    b: u32,
    result: u32,
    carry: bool,
    forwarded: bool,
    mem: Option<MemOp>,
) -> ExecActivity {
    ExecActivity {
        op_a: a,
        op_b: b,
        result,
        carry_chain: predecode::adder_chain(op.adder, a, b, carry),
        mul_active: op.is_mul,
        mul_bits: mul_bits_pre(op.is_mul, a, b),
        shift_amount: if op.is_shift { (b & 0x1F) as u8 } else { 0 },
        forwarded,
        branch_taken: None,
        mem_address: mem.map(MemOp::address),
    }
}

fn mul_bits_pre(is_mul: bool, a: u32, b: u32) -> u8 {
    if is_mul {
        let bits_a = 32 - a.leading_zeros();
        let bits_b = 32 - b.leading_zeros();
        bits_a.max(bits_b) as u8
    } else {
        0
    }
}

fn load_pre(
    memory: &Memory,
    irq: Option<&mut InterruptController>,
    op: &MicroOp,
    address: u32,
) -> Result<u32, PipelineError> {
    // Only aligned *word* accesses route to the MMIO window; sub-word and
    // unaligned accesses inside it fall through to the data memory, whose
    // bounds checks reject them with the usual structured errors.
    if let Some(ctl) = irq {
        if op.mem == MemKind::LoadWord && is_mmio(address) {
            return ctl.mmio_load(address);
        }
    }
    Ok(match op.mem {
        MemKind::LoadWord => memory.load_word(address)?,
        MemKind::LoadHalf { signed: false } => u32::from(memory.load_half(address)?),
        MemKind::LoadHalf { signed: true } => memory.load_half(address)? as i16 as i32 as u32,
        MemKind::LoadByte { signed: false } => u32::from(memory.load_byte(address)?),
        MemKind::LoadByte { signed: true } => memory.load_byte(address)? as i8 as i32 as u32,
        _ => 0,
    })
}

fn store_pre(
    memory: &mut Memory,
    irq: Option<&mut InterruptController>,
    op: &MicroOp,
    address: u32,
    value: u32,
) -> Result<(), PipelineError> {
    if let Some(ctl) = irq {
        if op.mem == MemKind::StoreWord && is_mmio(address) {
            return ctl.mmio_store(address, value);
        }
    }
    match op.mem {
        MemKind::StoreWord => memory.store_word(address, value),
        MemKind::StoreHalf => memory.store_half(address, value as u16),
        MemKind::StoreByte => memory.store_byte(address, value as u8),
        _ => Ok(()),
    }
}

fn adder_chain(opcode: Opcode, a: u32, b: u32, carry: bool) -> u8 {
    match opcode {
        Opcode::Add | Opcode::Addi => alu::carry_chain(a, b, false),
        Opcode::Addc | Opcode::Addic => alu::carry_chain(a, b, carry),
        Opcode::Sub | Opcode::Sf(_) | Opcode::Sfi(_) => alu::carry_chain(a, !b, true),
        op if op.is_mem() => alu::carry_chain(a, b, false),
        _ => 0,
    }
}

fn mul_bits(opcode: Opcode, a: u32, b: u32) -> u8 {
    match opcode {
        Opcode::Mul | Opcode::Mulu | Opcode::Muli => {
            let bits_a = 32 - a.leading_zeros();
            let bits_b = 32 - b.leading_zeros();
            bits_a.max(bits_b) as u8
        }
        _ => 0,
    }
}

fn shift_amount(opcode: Opcode, b: u32) -> u8 {
    match opcode.timing_class() {
        idca_isa::TimingClass::Shift => (b & 0x1F) as u8,
        _ => 0,
    }
}

fn load(
    memory: &Memory,
    irq: Option<&mut InterruptController>,
    opcode: Opcode,
    address: u32,
) -> Result<u32, PipelineError> {
    if let Some(ctl) = irq {
        if matches!(opcode, Opcode::Lwz | Opcode::Lws) && is_mmio(address) {
            return ctl.mmio_load(address);
        }
    }
    Ok(match opcode {
        Opcode::Lwz | Opcode::Lws => memory.load_word(address)?,
        Opcode::Lhz => u32::from(memory.load_half(address)?),
        Opcode::Lhs => memory.load_half(address)? as i16 as i32 as u32,
        Opcode::Lbz => u32::from(memory.load_byte(address)?),
        Opcode::Lbs => memory.load_byte(address)? as i8 as i32 as u32,
        _ => 0,
    })
}

fn store(
    memory: &mut Memory,
    irq: Option<&mut InterruptController>,
    opcode: Opcode,
    address: u32,
    value: u32,
) -> Result<(), PipelineError> {
    if let Some(ctl) = irq {
        if opcode == Opcode::Sw && is_mmio(address) {
            return ctl.mmio_store(address, value);
        }
    }
    match opcode {
        Opcode::Sw => memory.store_word(address, value),
        Opcode::Sh => memory.store_half(address, value as u16),
        Opcode::Sb => memory.store_byte(address, value as u8),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DigestObserver, Interpreter, Stage};
    use idca_isa::asm::Assembler;

    fn assemble(src: &str) -> Program {
        Assembler::new().assemble(src).expect("assembles")
    }

    fn run(src: &str) -> SimResult {
        Simulator::new(SimConfig::default())
            .run(&assemble(src))
            .expect("runs")
    }

    #[test]
    fn straight_line_arithmetic_matches_interpreter() {
        let src = "l.addi r3, r0, 6\n l.addi r4, r0, 7\n l.mul r5, r3, r4\n\
                   l.add r6, r5, r3\n l.sub r7, r5, r4\n l.nop 1\n";
        let sim = run(src);
        let golden = Interpreter::new().run(&assemble(src)).unwrap();
        assert_eq!(sim.state.regs.as_array(), golden.regs.as_array());
    }

    #[test]
    fn forwarding_handles_back_to_back_dependencies() {
        // Each instruction depends on the previous one; without forwarding
        // the results would be stale.
        let sim = run("l.addi r3, r0, 1\n l.add r3, r3, r3\n l.add r3, r3, r3\n\
             l.add r3, r3, r3\n l.add r3, r3, r3\n l.nop 1\n");
        assert_eq!(sim.state.reg(Reg::r(3)), 16);
    }

    #[test]
    fn load_use_is_forwarded_from_control_stage() {
        let sim = run("l.addi r1, r0, 0x40\n l.addi r3, r0, 99\n l.sw 0(r1), r3\n\
             l.lwz r4, 0(r1)\n l.add r5, r4, r4\n l.nop 1\n");
        assert_eq!(sim.state.reg(Reg::r(4)), 99);
        assert_eq!(sim.state.reg(Reg::r(5)), 198);
    }

    #[test]
    fn loop_with_branch_and_delay_slot() {
        let src = "        l.addi r3, r0, 5
                           l.addi r4, r0, 0
                   loop:   l.add  r4, r4, r3
                           l.addi r3, r3, -1
                           l.sfne r3, r0
                           l.bf   loop
                           l.nop  0
                           l.nop  1";
        let sim = run(src);
        assert_eq!(sim.state.reg(Reg::r(4)), 15);
        let golden = Interpreter::new().run(&assemble(src)).unwrap();
        assert_eq!(sim.state.regs.as_array(), golden.regs.as_array());
    }

    #[test]
    fn taken_branches_cost_no_extra_bubbles() {
        // A tight loop should sustain close to one instruction per cycle:
        // the branch is resolved in decode and the delay slot is useful.
        let src = "        l.addi r3, r0, 200
                   loop:   l.addi r3, r3, -1
                           l.sfne r3, r0
                           l.bf   loop
                           l.nop  0
                           l.nop  1";
        let sim = run(src);
        let ipc = sim.trace.ipc();
        assert!(ipc > 0.9, "expected IPC close to 1, got {ipc}");
    }

    #[test]
    fn jal_and_jr_round_trip() {
        let src = "        l.jal  func
                           l.addi r3, r0, 1
                           l.addi r4, r0, 2
                           l.nop  1
                   func:   l.addi r5, r0, 3
                           l.jr   r9
                           l.addi r6, r0, 4";
        let sim = run(src);
        let golden = Interpreter::new().run(&assemble(src)).unwrap();
        assert_eq!(sim.state.regs.as_array(), golden.regs.as_array());
        assert_eq!(sim.state.reg(Reg::r(4)), 2);
    }

    #[test]
    fn memory_state_matches_interpreter() {
        let src = "        l.addi r1, r0, 0x100
                           l.addi r3, r0, 0
                           l.addi r5, r0, 8
                   loop:   l.slli r6, r3, 2
                           l.add  r6, r6, r1
                           l.mul  r7, r3, r3
                           l.sw   0(r6), r7
                           l.addi r3, r3, 1
                           l.sfne r3, r5
                           l.bf   loop
                           l.nop  0
                           l.nop  1";
        let sim = run(src);
        let golden = Interpreter::new().run(&assemble(src)).unwrap();
        for i in 0..8u32 {
            let addr = 0x100 + i * 4;
            assert_eq!(
                sim.state.memory.load_word(addr).unwrap(),
                golden.memory.load_word(addr).unwrap(),
                "mismatch at data address {addr:#x}"
            );
            assert_eq!(sim.state.memory.load_word(addr).unwrap(), i * i);
        }
    }

    #[test]
    fn trace_records_every_stage_every_cycle() {
        let sim = run("l.addi r3, r0, 1\n l.addi r4, r0, 2\n l.add r5, r3, r4\n l.nop 1\n");
        assert!(!sim.trace.cycles().is_empty());
        for record in sim.trace.cycles() {
            assert_eq!(record.stages.len(), Stage::COUNT);
        }
        // The first instruction must appear in the execute stage at some point.
        let saw_add = sim
            .trace
            .cycles()
            .iter()
            .any(|c| c.timing_class(Stage::Execute) == idca_isa::TimingClass::Add);
        assert!(saw_add);
    }

    #[test]
    fn exec_activity_reports_multiplier_usage() {
        let sim = run("l.addi r3, r0, 300\n l.addi r4, r0, 70\n l.mul r5, r3, r4\n l.nop 1\n");
        let mul_cycles: Vec<_> = sim
            .trace
            .cycles()
            .iter()
            .filter_map(|c| c.exec.as_ref())
            .filter(|e| e.mul_active)
            .collect();
        assert_eq!(mul_cycles.len(), 1);
        assert!(mul_cycles[0].mul_bits >= 9);
        assert_eq!(mul_cycles[0].result, 21000);
    }

    #[test]
    fn branch_activity_reports_decode_resolution() {
        // Each resolved branch or jump reports its direction once, in the
        // cycle it occupies execute: a taken and a not-taken branch and an
        // `l.jal`, all resolved in decode, then an `l.jr` resolved in
        // execute.
        let sim = run("        l.sfeq r0, r0
                     l.bf   target
                     l.nop  0
                     l.addi r3, r0, 9
             target: l.addi r4, r0, 7
                     l.bnf  target
                     l.nop  0
                     l.jal  func
                     l.nop  0
                     l.nop  1
             func:   l.jr   r9
                     l.nop  0");
        let resolved: Vec<bool> = sim
            .trace
            .cycles()
            .iter()
            .filter_map(|c| c.exec.as_ref()?.branch_taken)
            .collect();
        assert_eq!(resolved, [true, false, true, true]);
        // The skipped instruction must not have executed.
        assert_eq!(sim.state.reg(Reg::r(3)), 0);
        assert_eq!(sim.state.reg(Reg::r(4)), 7);
    }

    #[test]
    fn program_without_exit_marker_drains_naturally() {
        let sim = run("l.addi r3, r0, 4\n l.add r4, r3, r3\n");
        assert_eq!(sim.state.reg(Reg::r(4)), 8);
    }

    #[test]
    fn cycle_limit_is_enforced() {
        let program = assemble("loop: l.j loop\n l.nop 0\n");
        let config = SimConfig {
            max_cycles: 50,
            ..SimConfig::default()
        };
        let err = Simulator::new(config).run(&program).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::CycleLimitExceeded { limit: 50 }
        ));
    }

    #[test]
    fn store_then_load_ordering_is_preserved() {
        let sim = run("l.addi r1, r0, 0x80\n l.addi r3, r0, 5\n l.sw 0(r1), r3\n\
             l.addi r3, r0, 6\n l.sw 0(r1), r3\n l.lwz r4, 0(r1)\n l.nop 1\n");
        assert_eq!(sim.state.reg(Reg::r(4)), 6);
    }

    /// A loop workload long enough for several timer entries and storm
    /// raises, with memory traffic and branches in flight.
    fn irq_workload() -> Program {
        assemble(
            "        l.addi r3, r0, 40
                     l.addi r5, r0, 0
             loop:   l.mul  r4, r3, r3
                     l.sw   0(r0), r4
                     l.lwz  r6, 0(r0)
                     l.add  r5, r5, r6
                     l.addi r3, r3, -1
                     l.sfne r3, r0
                     l.bf   loop
                     l.nop  0
                     l.nop  1",
        )
    }

    #[test]
    fn interrupt_runs_are_bit_identical_across_engines() {
        let spec =
            crate::InterruptSpec::parse("timer=23,rate=0.01,seed=11,penalty=3").expect("spec");
        let (program, plan) = crate::InterruptPlan::attach(&irq_workload(), &spec);
        let sim = Simulator::new(SimConfig::default()).with_interrupts(plan);

        let mut reference = DigestObserver::new();
        let ref_run = sim
            .run_observed_reference(&program, &mut [&mut reference])
            .expect("reference runs");

        let pre = crate::PredecodedProgram::lower(&program);
        let mut predecoded = DigestObserver::new();
        let pre_run = sim
            .run_observed_predecoded(&pre, &mut [&mut predecoded])
            .expect("predecoded runs");

        // Fused burst capture (lone hinted digest observer) third.
        let mut fused = DigestObserver::with_hints(pre.digest_hints());
        let fused_run = sim
            .run_observed_predecoded(&pre, &mut [&mut fused])
            .expect("fused runs");

        // Hinted record-path capture: a second observer keeps every cycle
        // on full records.
        let mut hinted = DigestObserver::with_hints(pre.digest_hints());
        let mut chaperone = crate::TraceStats::default();
        sim.run_observed_predecoded(&pre, &mut [&mut hinted, &mut chaperone])
            .expect("hinted runs");

        assert_eq!(ref_run.summary, pre_run.summary);
        assert_eq!(ref_run.summary, fused_run.summary);
        for r in 0..32 {
            let reg = Reg::r(r);
            assert_eq!(ref_run.state.reg(reg), pre_run.state.reg(reg), "r{r}");
        }
        let reference = reference.into_digest();
        let predecoded = predecoded.into_digest();
        let fused = fused.into_digest();
        assert!(
            reference
                .events()
                .iter()
                .any(|e| matches!(e.kind, crate::DigestEventKind::IrqEntry { .. })),
            "scenario produced no interrupt entries"
        );
        assert_eq!(reference.to_bytes(), predecoded.to_bytes());
        assert_eq!(reference.to_bytes(), fused.to_bytes());
        assert_eq!(reference.to_bytes(), hinted.into_digest().to_bytes());
    }

    #[test]
    fn interrupt_entry_injects_penalty_bubbles_and_returns() {
        let spec = crate::InterruptSpec::parse("timer=15,penalty=4").expect("spec");
        let (program, plan) = crate::InterruptPlan::attach(&irq_workload(), &spec);
        let sim = Simulator::new(SimConfig::default()).with_interrupts(plan);
        let mut trace = PipelineTrace::default();
        sim.run_observed(&program, &mut [&mut trace]).expect("runs");

        let cycles = trace.cycles();
        let entry_spans: Vec<_> = cycles
            .iter()
            .filter(|c| c.irq_phase == IrqPhase::Entry)
            .collect();
        assert!(!entry_spans.is_empty());
        // Entry cycles come in runs of exactly `penalty`, fetching the
        // handler vector with a dead (bubbled) fetch stage.
        let first_entry = cycles
            .iter()
            .position(|c| c.irq_phase == IrqPhase::Entry)
            .expect("an entry");
        for offset in 0..4 {
            let record = &cycles[first_entry + offset];
            assert_eq!(record.irq_phase, IrqPhase::Entry, "offset {offset}");
            assert_eq!(record.fetch_address, plan.vector());
            assert_eq!(record.stages[Stage::Address as usize], Occupant::Bubble);
        }
        assert_eq!(cycles[first_entry + 4].irq_phase, IrqPhase::Handler);
        // The handler runs and returns: phases go back to None afterwards.
        let after = &cycles[first_entry..];
        assert!(after.iter().any(|c| c.irq_phase == IrqPhase::None));
        // The run still retires the full workload and exits cleanly.
        assert_eq!(
            cycles.last().expect("cycles").irq_phase,
            IrqPhase::None,
            "program must exit in user code"
        );
    }

    #[test]
    fn inactive_interrupt_plan_changes_nothing_downstream() {
        // A spec that never raises still attaches a controller; driving it
        // must leave the cycle stream of the (handler-augmented) image
        // bit-identical to running the same image with no controller at
        // all, with an empty event stream. (Interrupt-free sweeps skip the
        // attach entirely, so their images are untouched; this pins the
        // controller itself as a no-op when silent.)
        let spec = crate::InterruptSpec::default();
        assert!(!spec.active());
        let (augmented, plan) = crate::InterruptPlan::attach(&irq_workload(), &spec);
        let with_plan = Simulator::new(SimConfig::default()).with_interrupts(plan);
        let plain = Simulator::new(SimConfig::default());

        let mut d_plan = DigestObserver::new();
        let r_plan = with_plan
            .run_observed(&augmented, &mut [&mut d_plan])
            .expect("runs");
        let mut d_plain = DigestObserver::new();
        let r_plain = plain
            .run_observed(&augmented, &mut [&mut d_plain])
            .expect("runs");
        assert_eq!(r_plan.summary, r_plain.summary);
        let d_plan = d_plan.into_digest();
        assert!(d_plan.events().is_empty());
        assert_eq!(d_plan.to_bytes(), d_plain.into_digest().to_bytes());
    }
}
