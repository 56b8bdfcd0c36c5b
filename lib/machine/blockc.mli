(** Block-compiled execution backend.

    The interpreter ({!Core.step}) re-decodes every instruction on every
    cycle: a wide match on the instruction constructor, another per
    register operand, another per operand/target kind. This module is a
    second execution backend that pays those costs once per code page:
    on first entry into a page every instruction on it is compiled into
    a pre-decoded closure (register indices, immediates, branch targets
    and ALU/condition functions resolved at decode time), the page's
    basic blocks are discovered and summarised with pre-summed minimum
    cycle charges, and subsequent steps dispatch through a flat closure
    array indexed by the instruction pointer.

    {b The contract with the oracle is cycle identity}, not mere
    semantic equivalence. {!step} mirrors the {!Core.step} shell
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
    Blocks are decode/caching metadata: execution still proceeds one
    architectural cycle per {!step} so that bus arbitration, IRQ/IPI
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
      (** cycles run inside {!run}; the rest of this core's cycles went
          through {!step}. Kept outside the metrics registry, so the
          [Interp]/[Blocks] metric identity does not see it. *)
}

val create : Core.t -> Core.env -> t
(** [create core env] builds an empty cache over [env.code]. Nothing is
    compiled until execution first enters a page. *)

val step : t -> Core.step_result
(** One architectural cycle, observably identical to
    [Core.step core env] on the same state: same cycle charge, same
    stall/breakpoint/fault/event outcomes, same trace emissions, same
    RNG consumption. Lazily compiles the current page on first entry. *)

val run :
  t -> buses:Bus.t array -> fuel:int -> at:(int -> unit) ->
  int * Core.event option
(** [run t ~buses ~fuel ~at] executes up to [fuel] architectural cycles
    in one call, for the engines' burst fast paths: each cycle refills
    every lane in [buses] and then performs one {!step}, absorbing
    [Ran]/[Stalled] results and returning at the first event. A run of
    stalled cycles is taken in one step ({!Bus.advance}). Returns the
    number of cycles consumed — including the cycle of a terminating
    event — and that event, if any. [buses] are the bus lanes the
    caller owns for this stretch: every lane of a machine whose only
    running core is this one (the unreplicated burst of
    [Window.burst], which then adds the consumed count to
    [Machine.now]), or just this core's own lane inside an execution
    window or a quiet-cycle skip, where each replica ticks its own lane
    and the caller tops the others up.

    The only trace event a burst emits is the bus-stall span of
    {!Core.flush_bus_wait}. Its stamp reads the trace clock, which the
    burst does not advance, so [at k] is called just before each such
    flush with the flushing cycle's offset [k] ([1] is the burst's
    first cycle); the caller sets its trace clock to that cycle.

    Preconditions, checked by the caller: the core is not halted, no
    breakpoint is armed ([bp = None], [bp_suppress] clear) unless
    [fuel <= stall] (the burst then only takes stalled cycles, which
    never test the breakpoint — the run loop's quiet-cycle skip steps a
    catch-up replica paying a debug exception this way), and no
    device-visible activity (frame delivery, raised IRQ line), IPI
    delivery or preemption tick can fall within [fuel] cycles. Devices
    may exist: a per-cycle [dev_tick] over a quiescent stretch only
    refreshes the device's cycle cache, so the caller clips [fuel]
    strictly short of [Netdev.next_event] (a window ends there
    instead) and runs [Machine.tick_devices] once after accounting the
    consumed cycles, before dispatching a terminating event whose
    handler may touch device registers. Under those conditions a burst
    of [n] cycles is bit-identical to [n] successive lane refills +
    {!step} pairs, trace stamps included — the per-cycle checks it
    hoists are all loop-invariant. *)

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
