type t = X86 | Arm

type count_mode = Hardware | Compiler_assisted

type profile = {
  arch : t;
  freq_mhz : int;
  syscall_cost : int;
  fault_cost : int;
  irq_cost : int;
  ipi_latency : int;
  debug_exception_cost : int;
  breakpoint_set_cost : int;
  vm_exit_cost : int;
  rep_walk_cost : int;
  mem_extra_cycles : int;
  bus_rate : float;
  jitter_p : float;
  jitter_cycles : int;
  count_mode : count_mode;
  pt_spare_bit : bool;
  vm_support : bool;
  pte_scan_cost : int;
  removal_cost : int;
}

let x86 =
  {
    arch = X86;
    freq_mhz = 3400;
    syscall_cost = 150;
    fault_cost = 200;
    irq_cost = 300;
    ipi_latency = 200;
    debug_exception_cost = 300;
    breakpoint_set_cost = 40;
    vm_exit_cost = 1400;
    rep_walk_cost = 400;
    mem_extra_cycles = 0;
    bus_rate = 2.0;
    jitter_p = 0.012;
    jitter_cycles = 12;
    count_mode = Hardware;
    pt_spare_bit = true;
    vm_support = true;
    pte_scan_cost = 850;
    removal_cost = 24_000;
  }

let arm =
  {
    arch = Arm;
    freq_mhz = 1000;
    syscall_cost = 260;
    fault_cost = 320;
    irq_cost = 450;
    ipi_latency = 350;
    debug_exception_cost = 520;
    breakpoint_set_cost = 60;
    vm_exit_cost = 0;
    (* seL4 on this Arm platform does not support hypervisor mode. *)
    rep_walk_cost = 0;
    mem_extra_cycles = 1;
    bus_rate = 1.6;
    jitter_p = 0.013;
    jitter_cycles = 13;
    count_mode = Compiler_assisted;
    pt_spare_bit = false;
    vm_support = false;
    pte_scan_cost = 1250;
    removal_cost = 21_000;
  }

let profile_of = function X86 -> x86 | Arm -> arm

let to_string = function X86 -> "x86" | Arm -> "Arm"

let cycles_to_us p c = float_of_int c /. float_of_int p.freq_mhz
