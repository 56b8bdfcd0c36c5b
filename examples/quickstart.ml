(* Quickstart: write a tiny program with the assembler eDSL, run it
   unreplicated, then triple-modular-redundant under LC-RCoE, and compare.

     dune exec examples/quickstart.exe *)

open Rcoe_isa
open Rcoe_core
open Rcoe_harness

(* A program that sums the first 100,000 integers, publishes the result
   into the replication signature, prints "done", and exits. *)
let program =
  let a = Asm.create "quickstart" in
  let open Reg in
  Asm.space a "result" 1;
  Asm.label a "main";
  Asm.movi a R4 0;
  (* accumulator *)
  Asm.for_up a R5 ~start:1 ~stop:(Instr.Imm 100_001) (fun () ->
      Asm.add a R4 R4 R5);
  Asm.la a R6 "result";
  Asm.st a R6 R4 0;
  (* Critical output goes into the state signature: if any replica
     computed a different sum, the replicas' votes will catch it. *)
  Asm.la a R0 "result";
  Asm.movi a R1 1;
  Asm.syscall a Rcoe_kernel.Syscall.sys_ft_add_trace;
  List.iter
    (fun c ->
      Asm.movi a R0 (Char.code c);
      Asm.syscall a Rcoe_kernel.Syscall.sys_putchar)
    [ 'd'; 'o'; 'n'; 'e' ];
  Asm.syscall a Rcoe_kernel.Syscall.sys_exit;
  Asm.assemble ~entry:"main" a

let run_with label config =
  let r = Runner.run_program ~config ~program () in
  let sum =
    Rcoe_kernel.Kernel.read_user
      (System.kernel r.Runner.sys 0)
      ~va:(Program.data_addr program "result")
  in
  Printf.printf "%-18s %8d cycles   sum=%d   output=%S   sync rounds=%d\n"
    label r.Runner.cycles sum
    (System.output r.Runner.sys 0)
    (System.counter r.Runner.sys "sync.rounds")

let () =
  Printf.printf "quickstart: 1 + 2 + ... + 100000 (expected %d)\n\n"
    (100_000 * 100_001 / 2);
  run_with "unreplicated:"
    (Runner.config_for ~mode:Config.Base ~nreplicas:1
       ~arch:Rcoe_machine.Arch.X86 ());
  run_with "LC-RCoE TMR:"
    (Runner.config_for ~mode:Config.LC ~nreplicas:3 ~arch:Rcoe_machine.Arch.X86
       ());
  run_with "CC-RCoE TMR:"
    (Runner.config_for ~mode:Config.CC ~nreplicas:3 ~arch:Rcoe_machine.Arch.X86
       ());
  Printf.printf
    "\nAll three agree; the replicated runs synchronised at every timer\n\
     tick and voted on their state signatures without the program having\n\
     to know it was replicated.\n"
