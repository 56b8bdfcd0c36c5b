(** Architecture profiles.

    The paper evaluates on two machines whose differences drive the whole
    design space:

    - x86 (Skylake i7-6700, 3.4 GHz): the PMU counts user-mode retired
      branches precisely (branch-retired minus far-branches), breakpoints
      have a resume flag, page tables have a spare bit for marking DMA
      buffers, and VMs are supported.
    - Arm (i.MX6 Cortex-A9, 0.8–1 GHz): no precise branch PMU event, so
      CC-RCoE needs compiler-assisted counting on a reserved register;
      no resume flag, which the model folds into a larger per-hit
      debug-exception cost; no spare page-table bit, so error masking
      under CC is unsupported; no VMs; a single core cannot saturate the
      memory bus.

    A {!profile} packages these differences plus the cycle-cost model used
    by the simulator. Costs are in simulated cycles; they are calibrated
    to reproduce the paper's overhead *shapes*, not its absolute times. *)

type t = X86 | Arm

type count_mode =
  | Hardware  (** PMU counts branches; zero per-branch overhead. *)
  | Compiler_assisted
      (** Programs must be assembled with the {!Branch_count} pass;
          the counter lives in the reserved register and is
          context-switched with the thread. *)

type profile = {
  arch : t;
  freq_mhz : int;  (** Converts cycles to microseconds in reports. *)
  syscall_cost : int;  (** Kernel entry + exit. *)
  fault_cost : int;
  irq_cost : int;  (** Interrupt entry + acknowledgment. *)
  ipi_latency : int;  (** Cycles for an IPI to reach another core. *)
  debug_exception_cost : int;
      (** Charged once per breakpoint hit on both profiles; the Arm
          value (520 against 300) stands for its missing resume flag. *)
  breakpoint_set_cost : int;  (** Programming the debug registers. *)
  vm_exit_cost : int;  (** Added to every kernel crossing in VM mode. *)
  rep_walk_cost : int;
      (** Software walk of guest page tables needed to recognise a
          rep-string instruction at a prospective breakpoint in a VM. *)
  mem_extra_cycles : int;  (** Extra cycles per data-memory access. *)
  bus_rate : float;  (** Memory-bus word-transfers per cycle. *)
  jitter_p : float;  (** Per-instruction probability of a stall. *)
  jitter_cycles : int;  (** Stall length (cache/TLB-miss model). *)
  count_mode : count_mode;
  pt_spare_bit : bool;
      (** Spare PTE bit available for DMA marking; CC error masking
          needs it ([Config.validate]). *)
  vm_support : bool;  (** Hypervisor mode available for [vm] runs. *)
  pte_scan_cost : int;
      (** Per virtual page, when masking promotes a new primary and
          scans its page table for DMA marks. *)
  removal_cost : int;  (** Removing a faulty non-primary replica. *)
}

val x86 : profile
val arm : profile

val profile_of : t -> profile
val to_string : t -> string

val cycles_to_us : profile -> int -> float
(** [cycles_to_us p c] converts simulated cycles to microseconds at the
    profile's clock frequency. *)
