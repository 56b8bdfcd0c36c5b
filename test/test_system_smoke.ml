(* End-to-end smoke tests: a small program running under every
   replication mode on both architecture profiles. *)

open Rcoe_isa
open Rcoe_core

(* Building the entry address for spawn requires knowing the label's code
   address; assemble twice: once to learn it, once for real. *)
let make ~branch_count =
  let build worker_addr =
    let a = Asm.create "smoke" in
    let open Reg in
    Asm.space a "cell" 4;
    Asm.label a "worker";
    Asm.la a R4 "cell";
    Asm.mov a R1 R0;
    Asm.mov a R0 R4;
    Asm.movi a R2 0;
    Asm.movi a R3 0;
    Asm.syscall a Rcoe_kernel.Syscall.sys_atomic;
    Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
    Asm.label a "main";
    Asm.movi a R5 0;
    Asm.for_up a R6 ~start:1 ~stop:(Instr.Imm 60_001) (fun () ->
        Asm.add a R5 R5 R6);
    Asm.la a R4 "cell";
    Asm.st a R4 R5 1;
    Asm.movi a R0 worker_addr;
    Asm.movi a R1 42;
    Asm.syscall a Rcoe_kernel.Syscall.sys_spawn;
    Asm.mov a R7 R0;
    Asm.movi a R0 worker_addr;
    Asm.movi a R1 58;
    Asm.syscall a Rcoe_kernel.Syscall.sys_spawn;
    Asm.mov a R8 R0;
    Asm.mov a R0 R7;
    Asm.syscall a Rcoe_kernel.Syscall.sys_join;
    Asm.mov a R0 R8;
    Asm.syscall a Rcoe_kernel.Syscall.sys_join;
    (* Publish the cell into the signature. *)
    Asm.la a R0 "cell";
    Asm.movi a R1 2;
    Asm.syscall a Rcoe_kernel.Syscall.sys_ft_add_trace;
    Asm.movi a R0 (Char.code 'o');
    Asm.syscall a Rcoe_kernel.Syscall.sys_putchar;
    Asm.movi a R0 (Char.code 'k');
    Asm.syscall a Rcoe_kernel.Syscall.sys_putchar;
    Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
    Asm.assemble ~entry:"main" ~branch_count a
  in
  let probe = build 0 in
  build (Program.label_addr probe "worker")

let run_config cfg =
  let profile = Rcoe_machine.Arch.profile_of cfg.Config.arch in
  let branch_count =
    profile.Rcoe_machine.Arch.count_mode = Rcoe_machine.Arch.Compiler_assisted
  in
  let program = make ~branch_count in
  let sys = System.create ~config:cfg ~program in
  System.run sys ~max_cycles:20_000_000;
  sys

let check_finished name sys =
  (match System.halted sys with
  | Some r ->
      Alcotest.failf "%s halted: %s" name (System.halt_reason_to_string r)
  | None -> ());
  Alcotest.(check bool) (name ^ " finished") true (System.finished sys);
  Alcotest.(check string) (name ^ " output") "ok" (System.output sys 0)

let cfg ~mode ~n ~arch =
  {
    Config.default with
    Config.mode;
    nreplicas = n;
    arch;
    tick_interval = 20_000;
    barrier_timeout = 200_000;
    user_words = 64 * 1024;
  }

let test_base_x86 () =
  check_finished "base-x86" (run_config (cfg ~mode:Config.Base ~n:1 ~arch:Rcoe_machine.Arch.X86))

let test_base_arm () =
  check_finished "base-arm" (run_config (cfg ~mode:Config.Base ~n:1 ~arch:Rcoe_machine.Arch.Arm))

let test_lc_dmr_x86 () =
  let sys = run_config (cfg ~mode:Config.LC ~n:2 ~arch:Rcoe_machine.Arch.X86) in
  check_finished "lc-d-x86" sys;
  Alcotest.(check string) "replica outputs equal" (System.output sys 0)
    (System.output sys 1)

let test_lc_tmr_x86 () =
  check_finished "lc-t-x86" (run_config (cfg ~mode:Config.LC ~n:3 ~arch:Rcoe_machine.Arch.X86))

let test_lc_dmr_arm () =
  check_finished "lc-d-arm" (run_config (cfg ~mode:Config.LC ~n:2 ~arch:Rcoe_machine.Arch.Arm))

let test_cc_dmr_x86 () =
  let sys = run_config (cfg ~mode:Config.CC ~n:2 ~arch:Rcoe_machine.Arch.X86) in
  check_finished "cc-d-x86" sys

let test_cc_tmr_x86 () =
  check_finished "cc-t-x86" (run_config (cfg ~mode:Config.CC ~n:3 ~arch:Rcoe_machine.Arch.X86))

let test_cc_dmr_arm () =
  check_finished "cc-d-arm" (run_config (cfg ~mode:Config.CC ~n:2 ~arch:Rcoe_machine.Arch.Arm))

let test_signatures_used () =
  let sys = run_config (cfg ~mode:Config.LC ~n:2 ~arch:Rcoe_machine.Arch.X86) in
  let c = System.counter sys in
  Alcotest.(check bool) "some rounds happened" true (c "sync.rounds" > 0);
  Alcotest.(check bool) "votes happened" true (c "sync.votes" > 0);
  Alcotest.(check bool) "ft rendezvous happened" true (c "sync.ft_rounds" > 0)

let test_cc_bp_machinery () =
  let sys = run_config (cfg ~mode:Config.CC ~n:2 ~arch:Rcoe_machine.Arch.X86) in
  let c = System.counter sys in
  Alcotest.(check bool) "rounds happened" true (c "sync.rounds" > 0);
  Alcotest.(check bool) "ticks delivered" true (c "kernel.ticks_delivered" > 0)

let suite =
  [
    Alcotest.test_case "base x86 finishes" `Quick test_base_x86;
    Alcotest.test_case "base arm finishes" `Quick test_base_arm;
    Alcotest.test_case "LC DMR x86" `Quick test_lc_dmr_x86;
    Alcotest.test_case "LC TMR x86" `Quick test_lc_tmr_x86;
    Alcotest.test_case "LC DMR arm" `Quick test_lc_dmr_arm;
    Alcotest.test_case "CC DMR x86" `Quick test_cc_dmr_x86;
    Alcotest.test_case "CC TMR x86" `Quick test_cc_tmr_x86;
    Alcotest.test_case "CC DMR arm (compiler-assisted)" `Quick test_cc_dmr_arm;
    Alcotest.test_case "sync rounds and votes happen" `Quick test_signatures_used;
    Alcotest.test_case "CC rounds complete" `Quick test_cc_bp_machinery;
  ]
