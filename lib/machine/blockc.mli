(** Block-compiled execution backend.

    The interpreter ({!Core.step}) re-decodes every instruction on every
    cycle: a wide match on the instruction constructor, another per
    register operand, another per operand/target kind. This module is a
    second execution backend that pays those costs once per code page:
    on first entry into a page every instruction on it is compiled into
    a pre-decoded closure (register indices, immediates, branch targets
    and integer ALU/condition functions resolved at decode time), the page's
    basic blocks are discovered and summarised with pre-summed minimum
    cycle charges, and subsequent cycles dispatch through a flat closure
    array indexed by the instruction pointer.

    {b The contract with the oracle is cycle identity}, not mere
    semantic equivalence. {!run} loops the {!Core.step} shell
    decision for decision — halted / stall / breakpoint / bad-ip
    ordering, the [bp_suppress] re-arm, bus-wait accounting and its
    trace flush, and the jitter RNG draw on exactly the cycles the
    interpreter would draw it — and every compiled closure either
    reproduces the corresponding {!Core.exec} arm exactly or, for the
    stateful instructions (rep-strings, exclusives, kernel atomics),
    calls {!Core.exec} itself. Replicated execution, signatures, votes,
    breakpoints, checkpoints and traces therefore cannot distinguish the
    backends; [test/test_exec_blocks.ml] and the [bench exec] baseline
    rows enforce this bit for bit and cycle for cycle.

    {b Invalidation contract.} The compiler's only mutable input is the
    kernel's private code array (guest code is Harvard-separate from
    simulated data memory). Translations, register operands and memory
    contents are read live at execution time, so data writes, dirty-page
    traffic and page-table remaps need no invalidation hook. The cache
    must be invalidated exactly when the code array changes: a code
    patch ([Kernel.patch_code] / the [code_patch] syscall), a snapshot
    restore that rewinds past one, or a re-integration adopt. Use
    {!invalidate_addr} for a single patched location and
    {!invalidate_all} for wholesale replacement. *)

(** Which execution backend a kernel/replica should run. [Interp] is
    the oracle interpreter ({!Core.step}); [Blocks] is this module. *)
type backend = Interp | Blocks

type t
(** A block cache bound to one core and its environment. Create one per
    kernel; it shares the core's mutable state and observes every
    architectural effect the interpreter would. *)

(** A compiled basic block: [b_len] instructions starting at
    [b_first], ending at a control transfer (or page edge), with the
    minimum cycle charge — one cycle per instruction plus the profile's
    guaranteed memory-access stalls — pre-summed in [b_min_cycles].
    Blocks are decode/caching metadata: {!run} still proceeds one
    architectural cycle at a time so that bus arbitration, IRQ/IPI
    delivery points and sync phases interleave exactly as under the
    interpreter. *)
type block = { b_first : int; b_len : int; b_min_cycles : int }

(** Lifetime counters for the cache, surfaced in tests and benches. *)
type stats = {
  mutable pages_decoded : int;  (** pages compiled (including re-compiles) *)
  mutable blocks_compiled : int;  (** basic blocks discovered *)
  mutable ops_compiled : int;  (** instruction slots compiled *)
  mutable invalidations : int;  (** pages thrown away *)
  mutable burst_cycles : int;
      (** cycles the run loop's fast steps (execution windows and the
          quiet-cycle skip) ran inside {!run}; the caller adds them, so
          the one-cycle runs of [Kernel.step] do not count. Kept outside
          the metrics registry, so the [Interp]/[Blocks] metric identity
          does not see it. *)
}

val create : Core.t -> Core.env -> t
(** [create core env] builds an empty cache over [env.code]. Nothing is
    compiled until execution first enters a page. *)

val run : t -> fuel:int -> at:(int -> unit) -> Core.event option
(** [run t ~fuel ~at] executes up to [fuel] architectural cycles in one
    call and returns at the first event, or [None] when the fuel runs
    out. Each cycle ticks the core's own bus lane (the environment's
    [bus]) and then does what {!Core.step} does on the same state: same
    cycle charge, same stall/breakpoint/fault/event outcomes, same trace
    emissions, same RNG consumption. A run of [n] cycles is therefore
    [n] calls of [Kernel.step] on the interpreter. A run of stalled
    cycles is taken in one step ({!Bus.advance}). The cycles consumed,
    the cycle of a terminating event included, are added to the core's
    [cycles], where the caller reads them; the lane ticks once for each
    of them. A halted core consumes nothing, ticks nothing and returns
    [Ev_halt]. Lazily compiles each page on first entry. On a decoded
    page a cycle allocates nothing unless it ends the run with an
    event: the jitter draw is [Rng.below], loads and stores walk the
    page table with {!Page_table.ram_addr}, and no float is boxed.

    The trace events a run emits are a breakpoint fire and the
    bus-stall span of {!Core.flush_bus_wait}. Their stamps read the
    trace clock, which the run does not advance, so [at k] is called
    just before each with the cycle's offset [k] ([1] is the run's
    first cycle); the caller sets its trace clock to that cycle.

    Precondition, checked by the caller ([Sched.advance]): no device
    event (frame delivery, raised IRQ line), IPI delivery or preemption
    tick falls within [fuel] cycles; the caller ticks the devices at the
    cycle the run reached before it handles a terminating event. A
    device register access ends the run at its cycle: [at] runs first,
    so the caller can tick the devices there, and the interpreter
    performs the instruction. A run of [n] cycles is then bit-identical
    to [n] calls of [Kernel.step], trace stamps included. *)

val invalidate_addr : t -> int -> unit
(** Drop the compiled page containing the given code address (no-op if
    the address is out of range or the page was never compiled). Call
    after patching a single instruction. *)

val invalidate_all : t -> unit
(** Drop every compiled page. Call after wholesale code replacement
    (snapshot restore across a patch, re-integration adopt). *)

val stats : t -> stats
(** Live counters; mutated in place as the cache operates. *)

val blocks : t -> block list
(** Basic-block summaries of every currently-compiled page, in
    discovery order. Diagnostic surface for tests and benches. *)
