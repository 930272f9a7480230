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
//!
//! The cycle is written once, as `Core::step`, over two views of the
//! program: the per-opcode reference view re-derives every fact from the
//! instruction word, and the [`PredecodedProgram`] view reads its micro-op
//! table. When a hinted digest capture is a run's only observer, the
//! predecoded view also runs hazard-free block interiors on a burst fast
//! path over the same pipeline state.

use crate::digest::FastCycleFacts;
use crate::interp::alu::{self, AluOutcome};
use crate::irq::{is_mmio, InterruptController, InterruptPlan};
use crate::predecode::{self, PredecodedProgram};
use crate::{
    CycleObserver, CycleRecord, ExecActivity, IrqPhase, Memory, Occupant, PipelineError,
    PipelineTrace, RegisterFile, RunSummary, NOP_EXIT,
};
use idca_isa::{CtlKind, Insn, MemKind, Opcode, Program, Reg, TimingClass, INSN_BYTES};
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
/// instruction as its [`InsnView`] carries it: the word in the
/// [`Reference`] view, the micro-op table index in the predecoded view,
/// which recovers the word from the table only when it builds a
/// [`CycleRecord`].
#[derive(Debug, Clone, Copy)]
struct Fetched<Op> {
    pc: u32,
    op: Op,
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
    /// The access of a load or a store to the effective address of
    /// `outcome`, storing `rb_value`; `None` for any other instruction.
    fn of(load: bool, store: bool, outcome: &AluOutcome, rb_value: u32) -> Option<MemOp> {
        let address = outcome.address.unwrap_or(0);
        if load {
            Some(MemOp::Load { address })
        } else if store {
            Some(MemOp::Store {
                address,
                value: rb_value,
            })
        } else {
            None
        }
    }

    fn address(self) -> u32 {
        match self {
            MemOp::Load { address } | MemOp::Store { address, .. } => address,
        }
    }
}

/// An instruction past execute: the control latch, and one cycle later the
/// same entry as the writeback latch. `op` is as in [`Fetched`].
#[derive(Debug, Clone, Copy)]
struct Executed<Op> {
    pc: u32,
    op: Op,
    rd: Option<Reg>,
    value: u32,
    mem: Option<MemOp>,
}

/// The execute stage's data path for one instruction, before any link
/// write or branch resolution.
struct Execution {
    /// The ALU outcome, with its flag and carry updates.
    outcome: AluOutcome,
    /// The destination register, before any link write.
    rd: Option<Reg>,
    /// The access the control stage performs.
    mem: Option<MemOp>,
    /// The execute-stage activity, with no branch resolved.
    activity: ExecActivity,
}

/// How the one cycle body, [`Core::step`], reads the program. The
/// per-opcode [`Reference`] view re-derives every fact from the
/// instruction word each cycle; the [`PredecodedProgram`] view reads its
/// micro-op table. The latches, the forwarding network, branch resolution,
/// interrupts, fetch and the cycle record belong to the body and are
/// written once.
trait InsnView {
    /// An instruction as the latches carry it.
    type Op: Copy;

    /// The image bounds `[base, end)` and the initialized data words.
    fn image(&self) -> (u32, u32, &[(u32, u32)]);

    /// The instruction at `pc`. Hardened fetch: a register jump can put any
    /// value in the program counter, so a misaligned in-range address is
    /// [`PipelineError::PcOutOfRange`], never a silently truncated index
    /// (out-of-range addresses drain the pipeline before reaching it).
    fn fetch(&self, pc: u32) -> Result<Self::Op, PipelineError>;

    /// The instruction word of `op`, for the cycle record.
    fn insn(&self, op: Self::Op) -> Insn;

    /// The control-flow behaviour of `op`.
    fn ctl(&self, op: Self::Op) -> CtlKind;

    /// The byte displacement of `op` as a decode-resolved jump or branch.
    fn branch_disp(&self, op: Self::Op) -> u32;

    /// The source registers the forwarding network resolves for `op`.
    fn sources(&self, op: Self::Op) -> (Option<Reg>, Option<Reg>);

    /// The data path of `op` on the resolved `rA` value `a` and `rB` value
    /// `rb_value`, at the flag and carry before it; `forwarded` tells the
    /// activity whether an operand came from the forwarding network.
    fn execute(
        &self,
        op: Self::Op,
        a: u32,
        rb_value: u32,
        flag: bool,
        carry: bool,
        forwarded: bool,
    ) -> Execution;

    /// Performs `op`'s data-memory access `mem`, routing aligned word
    /// accesses inside the MMIO window to the interrupt controller when
    /// one is attached, and returns the loaded value (`None` for a store).
    fn access(
        &self,
        op: Self::Op,
        memory: &mut Memory,
        irq: Option<&mut InterruptController>,
        mem: MemOp,
    ) -> Result<Option<u32>, PipelineError>;

    /// A fast path for a lone hinted digest capture, run before each
    /// [`Core::step`]: it may advance `core` any number of cycles within
    /// `max_cycles`, bit-identically to stepping them. None by default.
    fn burst(
        &self,
        core: &mut Core<'_, Self::Op>,
        observers: &mut [&mut dyn CycleObserver],
        max_cycles: u64,
    ) -> Result<(), PipelineError> {
        let _ = (core, observers, max_cycles);
        Ok(())
    }
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
    /// Returns [`PipelineError`] for invalid memory accesses or when the
    /// run does not end within [`SimConfig::max_cycles`] cycles.
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
    /// Returns [`PipelineError`] for invalid memory accesses or when the
    /// run does not end within [`SimConfig::max_cycles`] cycles. Observers
    /// may have consumed an arbitrary prefix of the run when an error is
    /// returned; `finish` is not called in that case.
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
        self.run_fresh(|buffers| self.run_core(pre, observers, buffers))
    }

    /// [`Simulator::run_observed`] through the per-opcode reference view:
    /// the same cycle body, but every stage re-derives its facts from the
    /// instruction word each cycle instead of reading the predecoded
    /// micro-op table, and no cycle takes the burst fast path. Exists so
    /// differential tests can pin the predecoded view bit-identical (same
    /// [`CycleRecord`] stream, digests and summaries) against the
    /// per-opcode formulation.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] like [`Simulator::run_observed`].
    pub fn run_observed_reference(
        &self,
        program: &Program,
        observers: &mut [&mut dyn CycleObserver],
    ) -> Result<ObservedRun, PipelineError> {
        self.run_fresh(|buffers| self.run_core(&Reference(program), observers, buffers))
    }

    /// [`Simulator::run_observed_predecoded`] with caller-owned scratch
    /// state: the register file and memory image in `buffers` are reset and
    /// reused instead of being allocated per run, which removes the dominant
    /// allocation churn from workers that simulate many programs (e.g. the
    /// PVT-sweep digest phase).
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
        self.run_core(pre, observers, buffers)
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

    /// Runs `view`'s program on `buffers`, which must be in the
    /// architectural reset state: loads the data image, checks the
    /// interrupt vector, then advances [`Core::step`] until the run ends,
    /// letting a lone hinted digest capture take the view's
    /// [`InsnView::burst`] before each step. A run that ends on its last
    /// allowed cycle is within [`SimConfig::max_cycles`].
    fn run_core<V: InsnView>(
        &self,
        view: &V,
        observers: &mut [&mut dyn CycleObserver],
        buffers: &mut SimBuffers,
    ) -> Result<RunSummary, PipelineError> {
        let (base, end, data) = view.image();
        buffers.memory.load_image(data)?;
        self.check_vector(base, end)?;
        let max_cycles = self.config.max_cycles;
        let mut core = Core {
            regs: &mut buffers.regs,
            memory: &mut buffers.memory,
            flag: false,
            carry: false,
            base,
            end,
            fetch_pc: base,
            fe: None,
            dc: None,
            ex: None,
            ctrl: None,
            wb: None,
            halting: false,
            seq_counter: 0,
            retired: 0,
            cycle_count: 0,
            irq: self.interrupts.as_ref().map(InterruptController::new),
        };
        let fused = observers.len() == 1 && observers[0].as_hinted_digest().is_some();
        loop {
            if fused {
                view.burst(&mut core, observers, max_cycles)?;
            }
            if core.cycle_count >= max_cycles {
                return Err(PipelineError::CycleLimitExceeded { limit: max_cycles });
            }
            if core.step(view, observers)? {
                break;
            }
        }

        let summary = RunSummary {
            cycles: core.cycle_count,
            retired: core.retired,
        };
        for observer in observers.iter_mut() {
            observer.finish(&summary);
        }
        buffers.flag = core.flag;
        buffers.carry = core.carry;
        Ok(summary)
    }
}

/// The state one run advances: the architectural registers, memory and
/// flags, the fetch address, the five stage latches, the retirement and
/// cycle counters and the interrupt controller.
struct Core<'b, Op> {
    regs: &'b mut RegisterFile,
    memory: &'b mut Memory,
    flag: bool,
    carry: bool,
    /// The program image is `[base, end)`.
    base: u32,
    end: u32,
    /// The next sequential fetch address.
    fetch_pc: u32,
    fe: Option<Fetched<Op>>,
    dc: Option<Fetched<Op>>,
    ex: Option<Fetched<Op>>,
    ctrl: Option<Executed<Op>>,
    wb: Option<Executed<Op>>,
    /// Set when the exit marker executes: nothing younger executes or is
    /// fetched after it.
    halting: bool,
    /// Instructions fetched into the pipeline (the interrupt controller's
    /// progress count).
    seq_counter: u64,
    retired: u64,
    cycle_count: u64,
    irq: Option<InterruptController>,
}

impl<Op: Copy> Core<'_, Op> {
    fn in_range(&self, pc: u32) -> bool {
        pc >= self.base && pc < self.end
    }

    /// Writeback stage: commits the oldest instruction and returns the
    /// value it wrote to the register file, if any.
    #[inline(always)]
    fn writeback(&mut self) -> Option<u32> {
        let entry = self.wb.as_ref()?;
        self.retired += 1;
        let rd = entry.rd?;
        self.regs.write(rd, entry.value);
        Some(entry.value)
    }

    /// Mem/Control stage: performs the control latch's data-memory access
    /// in program order. Returns the latch as it leaves the stage, holding
    /// any load data, which is forwarded to the execute stage within the
    /// same cycle, and the load data itself.
    #[inline(always)]
    fn mem_control<V: InsnView<Op = Op>>(
        &mut self,
        view: &V,
    ) -> Result<(Option<Executed<Op>>, Option<u32>), PipelineError> {
        let mut ctrl = self.ctrl;
        let mut mem_return = None;
        if let Some(entry) = &mut ctrl {
            if let Some(mem) = entry.mem {
                mem_return = view.access(entry.op, self.memory, self.irq.as_mut(), mem)?;
                if let Some(value) = mem_return {
                    entry.value = value;
                }
            }
        }
        Ok((ctrl, mem_return))
    }

    /// Execute stage data path of `op`: resolves its operands through the
    /// forwarding network (the control latch `ctrl` as it left its stage,
    /// then the writeback latch, then the register file), runs the view's
    /// data path and commits its flag and carry updates. Also returns the
    /// `rB` value, a register jump's target.
    #[inline(always)]
    fn execute<V: InsnView<Op = Op>>(
        &mut self,
        view: &V,
        op: Op,
        ctrl: &Option<Executed<Op>>,
    ) -> (Execution, u32) {
        let (ra, rb) = view.sources(op);
        let (a, fwd_a) = resolve_operand(ra, ctrl, &self.wb, self.regs);
        let (rb_value, fwd_b) = resolve_operand(rb, ctrl, &self.wb, self.regs);
        let x = view.execute(op, a, rb_value, self.flag, self.carry, fwd_a || fwd_b);
        if let Some(flag) = x.outcome.flag {
            self.flag = flag;
        }
        if let Some(carry) = x.outcome.carry {
            self.carry = carry;
        }
        (x, rb_value)
    }

    /// One pipeline cycle: writeback and mem/control; execute, with the
    /// link write, register jumps and `l.rfe`; decode-stage branch
    /// resolution; interrupt acceptance and the entry flush; the one fetch
    /// lookup and the cycle record; then the latch and fetch-address
    /// update. Returns `true` when the run ended this cycle: the exit marker
    /// retired, or the pipeline drained after fetch left the image.
    fn step<V: InsnView<Op = Op>>(
        &mut self,
        view: &V,
        observers: &mut [&mut dyn CycleObserver],
    ) -> Result<bool, PipelineError> {
        let cycle = self.cycle_count;
        if let Some(ctl) = self.irq.as_mut() {
            ctl.begin_cycle(cycle);
        }

        // Every slot younger than the exit marker drains behind it, so the
        // only exit marker that reaches writeback is the one that halted
        // the pipeline.
        let finished = self
            .wb
            .is_some_and(|entry| view.ctl(entry.op) == CtlKind::Exit);
        let writeback = self.writeback();
        let (ctrl, mem_return) = self.mem_control(view)?;

        // -----------------------------------------------------------------
        // Execute stage.
        // -----------------------------------------------------------------
        let mut exec = None;
        let mut ex_redirect: Option<u32> = None;
        let next_ctrl = match self.ex {
            None => None,
            Some(fetched) => {
                let ctl = view.ctl(fetched.op);
                if ctl == CtlKind::Exit {
                    self.halting = true;
                }
                let (x, rb_value) = self.execute(view, fetched.op, &ctrl);
                let mut value = x.outcome.result;
                let mut rd = x.rd;
                let mut branch_taken = fetched.branch_taken;
                match ctl {
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
                        // Return-from-exception resolves in execute like a
                        // register jump targeting the saved PC. A stray
                        // `l.rfe` outside an active handler (or with no
                        // interrupt scenario attached) is a no-op.
                        let fetched_count = self.seq_counter;
                        if let Some(target) = self
                            .irq
                            .as_mut()
                            .and_then(|ctl| ctl.rfe_retire(fetched_count))
                        {
                            ex_redirect = Some(target);
                            branch_taken = Some(true);
                        }
                    }
                    _ => {}
                }
                exec = Some(ExecActivity {
                    result: value,
                    branch_taken,
                    ..x.activity
                });
                Some(Executed {
                    pc: fetched.pc,
                    op: fetched.op,
                    rd,
                    value,
                    mem: x.mem,
                })
            }
        };

        // -----------------------------------------------------------------
        // Decode stage: resolve PC-relative jumps and conditional branches
        // (the flag produced by the execute stage this cycle is already
        // visible, modelling the forwarding path into the branch logic).
        // -----------------------------------------------------------------
        let mut dc_redirect: Option<u32> = None;
        let mut dc_out = self.dc;
        if let Some(fetched) = &mut dc_out {
            let taken = match view.ctl(fetched.op) {
                CtlKind::Jump { .. } => Some(true),
                CtlKind::BranchIfFlag => Some(self.flag),
                CtlKind::BranchIfNotFlag => Some(!self.flag),
                _ => None,
            };
            if let Some(taken) = taken {
                fetched.branch_taken = Some(taken);
                if taken {
                    dc_redirect = Some(fetched.pc.wrapping_add(view.branch_disp(fetched.op)));
                }
            }
        }

        // -----------------------------------------------------------------
        // Fetch / address stage: present the instruction-memory address
        // (possibly redirected by the decode stage this very cycle) and
        // capture the fetched instruction for the next cycle.
        // -----------------------------------------------------------------
        let effective_fetch = dc_redirect.unwrap_or(self.fetch_pc);
        let fetch_in_range = self.in_range(effective_fetch);
        let mut fetch_redirected = dc_redirect.is_some() || ex_redirect.is_some();
        let mut fetch_address = effective_fetch;

        // Exception entry: accept a pending interrupt at the fetch boundary
        // (the in-flight plain instructions retire normally; the
        // not-yet-fetched one becomes the saved PC), or keep injecting the
        // remaining entry-flush bubble cycles. Acceptance requires bubbles
        // or plain instructions in fetch and decode, so that nothing in
        // flight can redirect or halt during the entry flush.
        let plain =
            |slot: Option<Fetched<Op>>| slot.is_none_or(|f| view.ctl(f.op) == CtlKind::None);
        let mut irq_entry_cycle = false;
        if let Some(ctl) = self.irq.as_mut() {
            if ctl.entry_pending() {
                ctl.entry_tick();
                irq_entry_cycle = true;
                fetch_address = ctl.vector();
            } else if !self.halting
                && dc_redirect.is_none()
                && ex_redirect.is_none()
                && ctl.takeable()
                && fetch_in_range
                && plain(self.fe)
                && plain(dc_out)
            {
                ctl.accept(effective_fetch, self.seq_counter)?;
                irq_entry_cycle = true;
                fetch_address = ctl.vector();
                fetch_redirected = true;
            }
        }

        // One lookup of the fetched instruction serves the new fetch latch
        // (unless execute redirects) and the address-stage occupant (unless
        // decode redirects).
        let fetched = if !irq_entry_cycle
            && !self.halting
            && fetch_in_range
            && (ex_redirect.is_none() || dc_redirect.is_none())
        {
            Some(view.fetch(effective_fetch)?)
        } else {
            None
        };
        let new_fe = match fetched {
            Some(op) if ex_redirect.is_none() => {
                self.seq_counter += 1;
                Some(Fetched {
                    pc: effective_fetch,
                    op,
                    branch_taken: None,
                })
            }
            _ => None,
        };

        // -----------------------------------------------------------------
        // Record this cycle.
        // -----------------------------------------------------------------
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
        let occupant = |at: Option<(u32, Op)>| match at {
            Some((pc, op)) => Occupant::Insn {
                pc,
                insn: view.insn(op),
            },
            None => Occupant::Bubble,
        };
        let record = CycleRecord {
            cycle,
            stages: [
                occupant(adr),
                occupant(self.fe.map(|f| (f.pc, f.op))),
                occupant(dc_out.map(|f| (f.pc, f.op))),
                occupant(self.ex.map(|f| (f.pc, f.op))),
                occupant(ctrl.map(|e| (e.pc, e.op))),
                occupant(self.wb.map(|e| (e.pc, e.op))),
            ],
            exec,
            mem_return,
            writeback,
            fetch_address,
            fetch_redirected,
            irq_phase: irq_phase_of(self.irq.as_ref(), irq_entry_cycle),
        };
        self.cycle_count += 1;
        for observer in observers.iter_mut() {
            observer.observe_cycle(&record);
        }
        drain_events(self.irq.as_mut(), observers);

        if finished {
            return Ok(true);
        }

        // -----------------------------------------------------------------
        // Latch update.
        // -----------------------------------------------------------------
        self.wb = ctrl;
        self.ctrl = next_ctrl;
        if self.halting {
            // Instructions younger than the exit marker never execute (they
            // are architecturally after the end of the program), matching
            // the reference interpreter.
            self.ex = None;
            self.dc = None;
            self.fe = None;
        } else {
            self.ex = dc_out;
            self.dc = if ex_redirect.is_some() { None } else { self.fe };
            self.fe = new_fe;
        }

        if irq_entry_cycle {
            // Fetch parks on the handler vector for the whole entry flush;
            // the first post-entry cycle fetches the handler.
            self.fetch_pc = fetch_address;
        } else if let Some(target) = ex_redirect {
            self.fetch_pc = target;
        } else if let Some(target) = dc_redirect {
            self.fetch_pc = target.wrapping_add(INSN_BYTES);
        } else if !self.halting && fetch_in_range {
            self.fetch_pc = effective_fetch.wrapping_add(INSN_BYTES);
        }

        // Natural drain: the program ran past its last instruction and the
        // pipeline is now empty.
        Ok(!self.halting
            && !self.in_range(self.fetch_pc)
            && self.fe.is_none()
            && self.dc.is_none()
            && self.ex.is_none()
            && self.ctrl.is_none()
            && self.wb.is_none())
    }
}

/// The per-opcode reference view: every stage re-derives the facts it needs
/// from the instruction word, through the original per-opcode matches and
/// the reference ALU ([`alu::operand_b`], [`alu::execute`]). It is the
/// oracle the table-driven [`PredecodedProgram`] view is pinned against.
struct Reference<'p>(&'p Program);

impl InsnView for Reference<'_> {
    type Op = Insn;

    fn image(&self) -> (u32, u32, &[(u32, u32)]) {
        (self.0.base_address(), self.0.end_address(), self.0.data())
    }

    fn fetch(&self, pc: u32) -> Result<Insn, PipelineError> {
        let index = self
            .0
            .insn_index(pc)
            .ok_or(PipelineError::PcOutOfRange { pc })?;
        Ok(self.0.insns()[index])
    }

    fn insn(&self, insn: Insn) -> Insn {
        insn
    }

    fn ctl(&self, insn: Insn) -> CtlKind {
        match insn.opcode() {
            Opcode::J => CtlKind::Jump { link: false },
            Opcode::Jal => CtlKind::Jump { link: true },
            Opcode::Jr => CtlKind::JumpReg { link: false },
            Opcode::Jalr => CtlKind::JumpReg { link: true },
            Opcode::Bf => CtlKind::BranchIfFlag,
            Opcode::Bnf => CtlKind::BranchIfNotFlag,
            Opcode::Rfe => CtlKind::Rfe,
            Opcode::Nop if insn.imm() == Some(i32::from(NOP_EXIT)) => CtlKind::Exit,
            _ => CtlKind::None,
        }
    }

    fn branch_disp(&self, insn: Insn) -> u32 {
        (insn.imm().unwrap_or(0) as u32).wrapping_mul(4)
    }

    fn sources(&self, insn: Insn) -> (Option<Reg>, Option<Reg>) {
        (insn.ra(), insn.rb())
    }

    fn execute(
        &self,
        insn: Insn,
        a: u32,
        rb_value: u32,
        flag: bool,
        carry: bool,
        forwarded: bool,
    ) -> Execution {
        let opcode = insn.opcode();
        let b = alu::operand_b(&insn, rb_value);
        let outcome = alu::execute(&insn, a, b, flag, carry);
        let mem = MemOp::of(opcode.is_load(), opcode.is_store(), &outcome, rb_value);
        // The carry-chain proxy reads the carry flag as this instruction left it.
        let carry = outcome.carry.unwrap_or(carry);
        let mul_active = matches!(opcode, Opcode::Mul | Opcode::Mulu | Opcode::Muli);
        Execution {
            outcome,
            rd: if opcode.writes_rd() { insn.rd() } else { None },
            mem,
            activity: ExecActivity {
                op_a: a,
                op_b: b,
                result: outcome.result,
                carry_chain: match opcode {
                    Opcode::Add | Opcode::Addi => alu::carry_chain(a, b, false),
                    Opcode::Addc | Opcode::Addic => alu::carry_chain(a, b, carry),
                    Opcode::Sub | Opcode::Sf(_) | Opcode::Sfi(_) => alu::carry_chain(a, !b, true),
                    op if op.is_mem() => alu::carry_chain(a, b, false),
                    _ => 0,
                },
                mul_active,
                mul_bits: if mul_active { operand_width(a, b) } else { 0 },
                shift_amount: match opcode.timing_class() {
                    TimingClass::Shift => (b & 0x1F) as u8,
                    _ => 0,
                },
                forwarded,
                branch_taken: None,
                mem_address: mem.map(MemOp::address),
            },
        }
    }

    fn access(
        &self,
        insn: Insn,
        memory: &mut Memory,
        irq: Option<&mut InterruptController>,
        mem: MemOp,
    ) -> Result<Option<u32>, PipelineError> {
        let opcode = insn.opcode();
        match mem {
            MemOp::Load { address } => {
                if let Some(ctl) = irq {
                    if matches!(opcode, Opcode::Lwz | Opcode::Lws) && is_mmio(address) {
                        return ctl.mmio_load(address).map(Some);
                    }
                }
                Ok(Some(match opcode {
                    Opcode::Lwz | Opcode::Lws => memory.load_word(address)?,
                    Opcode::Lhz => u32::from(memory.load_half(address)?),
                    Opcode::Lhs => memory.load_half(address)? as i16 as i32 as u32,
                    Opcode::Lbz => u32::from(memory.load_byte(address)?),
                    Opcode::Lbs => memory.load_byte(address)? as i8 as i32 as u32,
                    _ => 0,
                }))
            }
            MemOp::Store { address, value } => {
                if let Some(ctl) = irq {
                    if opcode == Opcode::Sw && is_mmio(address) {
                        return ctl.mmio_store(address, value).map(|()| None);
                    }
                }
                match opcode {
                    Opcode::Sw => memory.store_word(address, value)?,
                    Opcode::Sh => memory.store_half(address, value as u16)?,
                    Opcode::Sb => memory.store_byte(address, value as u8)?,
                    _ => {}
                }
                Ok(None)
            }
        }
    }
}

/// The predecoded view: every fact comes from the [`MicroOp`](crate::MicroOp) table
/// (`Op` is the table index), and a lone hinted digest capture runs block
/// interiors on the burst fast path.
impl InsnView for PredecodedProgram {
    type Op = u32;

    fn image(&self) -> (u32, u32, &[(u32, u32)]) {
        (self.base_address(), self.end_address(), self.data())
    }

    fn fetch(&self, pc: u32) -> Result<u32, PipelineError> {
        self.fetch_index(pc)
    }

    fn insn(&self, idx: u32) -> Insn {
        self.ops()[idx as usize].insn
    }

    fn ctl(&self, idx: u32) -> CtlKind {
        self.ops()[idx as usize].ctl
    }

    fn branch_disp(&self, idx: u32) -> u32 {
        self.ops()[idx as usize].branch_disp
    }

    fn sources(&self, idx: u32) -> (Option<Reg>, Option<Reg>) {
        let op = &self.ops()[idx as usize];
        (op.ra, op.rb)
    }

    #[inline(always)]
    fn execute(
        &self,
        idx: u32,
        a: u32,
        rb_value: u32,
        flag: bool,
        carry: bool,
        forwarded: bool,
    ) -> Execution {
        let op = &self.ops()[idx as usize];
        let b = op.op_b_imm.unwrap_or(rb_value);
        let outcome = predecode::exec_alu(op.alu, a, b, flag, carry);
        let mem = MemOp::of(op.mem.is_load(), op.mem.is_store(), &outcome, rb_value);
        let carry = outcome.carry.unwrap_or(carry);
        Execution {
            outcome,
            rd: op.rd,
            mem,
            activity: ExecActivity {
                op_a: a,
                op_b: b,
                result: outcome.result,
                carry_chain: predecode::adder_chain(op.adder, a, b, carry),
                mul_active: op.is_mul,
                mul_bits: if op.is_mul { operand_width(a, b) } else { 0 },
                shift_amount: if op.is_shift { (b & 0x1F) as u8 } else { 0 },
                forwarded,
                branch_taken: None,
                mem_address: mem.map(MemOp::address),
            },
        }
    }

    #[inline(always)]
    fn access(
        &self,
        idx: u32,
        memory: &mut Memory,
        irq: Option<&mut InterruptController>,
        mem: MemOp,
    ) -> Result<Option<u32>, PipelineError> {
        let kind = self.ops()[idx as usize].mem;
        match mem {
            MemOp::Load { address } => {
                // Only aligned *word* accesses route to the MMIO window;
                // sub-word and unaligned accesses inside it fall through to
                // the data memory, whose bounds checks reject them with the
                // usual structured errors.
                if let Some(ctl) = irq {
                    if kind == MemKind::LoadWord && is_mmio(address) {
                        return ctl.mmio_load(address).map(Some);
                    }
                }
                Ok(Some(match kind {
                    MemKind::LoadWord => memory.load_word(address)?,
                    MemKind::LoadHalf { signed: false } => u32::from(memory.load_half(address)?),
                    MemKind::LoadHalf { signed: true } => {
                        memory.load_half(address)? as i16 as i32 as u32
                    }
                    MemKind::LoadByte { signed: false } => u32::from(memory.load_byte(address)?),
                    MemKind::LoadByte { signed: true } => {
                        memory.load_byte(address)? as i8 as i32 as u32
                    }
                    _ => 0,
                }))
            }
            MemOp::Store { address, value } => {
                if let Some(ctl) = irq {
                    if kind == MemKind::StoreWord && is_mmio(address) {
                        return ctl.mmio_store(address, value).map(|()| None);
                    }
                }
                match kind {
                    MemKind::StoreWord => memory.store_word(address, value)?,
                    MemKind::StoreHalf => memory.store_half(address, value as u16)?,
                    MemKind::StoreByte => memory.store_byte(address, value as u8)?,
                    _ => {}
                }
                Ok(None)
            }
        }
    }

    /// The basic-block fast path. While the three youngest stages hold
    /// plain (non-control, non-exit) micro-ops and fetch runs inside a
    /// runway of plain ops, nothing can redirect, halt or end the run, so
    /// `k ≥ 4` cycles reduce to table walks over a window holding
    /// [execute, decode, fetch] oldest-first: the latch unwrapping and the
    /// control-flow checks are hoisted out, writeback, the memory access
    /// and execute run [`Core::step`]'s code, and each cycle folds compact
    /// [`FastCycleFacts`] into the digest instead of materializing a
    /// [`CycleRecord`].
    fn burst(
        &self,
        core: &mut Core<'_, u32>,
        observers: &mut [&mut dyn CycleObserver],
        max_cycles: u64,
    ) -> Result<(), PipelineError> {
        let ops = self.ops();
        let (Some(xe), Some(xd), Some(xf)) = (core.ex, core.dc, core.fe) else {
            return Ok(());
        };
        let base = core.base;
        if core.halting
            || !ops[xe.op as usize].is_plain()
            || !ops[xd.op as usize].is_plain()
            || !ops[xf.op as usize].is_plain()
            || !core.in_range(core.fetch_pc)
            || !(core.fetch_pc - base).is_multiple_of(INSN_BYTES)
        {
            return Ok(());
        }
        let fi = (core.fetch_pc - base) / INSN_BYTES;
        // k cycles are hazard-free when the k-2 ops fetched behind the
        // current window (those that reach decode within the window) are
        // plain, fetch stays in the image, and the cycle budget allows it.
        let mut k = u64::from(self.runway(fi).saturating_add(2))
            .min(u64::from(ops.len() as u32 - fi))
            .min(max_cycles - core.cycle_count);
        if let Some(ctl) = core.irq.as_ref() {
            // Burst-abort on pending interrupt: cap the burst so no
            // acceptance point can land inside it (the capped cycles run
            // through `step`, which makes the identical accept decision).
            k = k.min(ctl.burst_allowance(core.cycle_count, k));
        }
        if k < 4 {
            return Ok(());
        }
        let digest = observers[0]
            .as_hinted_digest()
            .expect("the burst runs for a lone hinted digest capture");
        let mut window = [xe, xd, xf];
        for j in 0..k {
            let fetch_idx = fi + j as u32;
            let fetch_address = base + fetch_idx * INSN_BYTES;
            if let Some(ctl) = core.irq.as_mut() {
                ctl.begin_cycle(core.cycle_count);
            }
            let wb_value = core.writeback();
            let (ctrl, mem_return) = core.mem_control(self)?;
            let exe = window[0];
            let (x, _) = core.execute(self, exe.op, &ctrl);
            core.seq_counter += 1;

            digest.observe_fast_cycle(&FastCycleFacts {
                fetch_address,
                adr_idx: fetch_idx,
                fe_idx: window[2].op,
                dc_idx: window[1].op,
                ex_idx: exe.op,
                ctrl_idx: ctrl.map(|e| e.op),
                wb_idx: core.wb.map(|e| e.op),
                mem_return,
                wb_value,
                exec: x.activity,
            });
            if let Some(ctl) = core.irq.as_mut() {
                for event in ctl.cycle_events() {
                    digest.observe_event(event);
                }
                ctl.clear_cycle_events();
            }
            core.cycle_count += 1;

            core.wb = ctrl;
            core.ctrl = Some(Executed {
                pc: exe.pc,
                op: exe.op,
                rd: x.rd,
                value: x.outcome.result,
                mem: x.mem,
            });
            window = [
                window[1],
                window[2],
                Fetched {
                    pc: fetch_address,
                    op: fetch_idx,
                    branch_taken: None,
                },
            ];
        }
        core.ex = Some(window[0]);
        core.dc = Some(window[1]);
        core.fe = Some(window[2]);
        core.fetch_pc = base + (fi + k as u32) * INSN_BYTES;
        Ok(())
    }
}

/// The multiplier's operand width: significant bits of the wider operand.
fn operand_width(a: u32, b: u32) -> u8 {
    let bits_a = 32 - a.leading_zeros();
    let bits_b = 32 - b.leading_zeros();
    bits_a.max(bits_b) as u8
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

/// The execute stage's view of source register `reg`: the value forwarded
/// from the control latch, else from the writeback latch, else the register
/// file, and whether it was forwarded.
fn resolve_operand<Op>(
    reg: Option<Reg>,
    ctrl: &Option<Executed<Op>>,
    wb: &Option<Executed<Op>>,
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
