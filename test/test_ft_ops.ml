(* FT_* syscall semantics through the full engine: kernel-mediated device
   access, DMA replication, output voting — across Base, LC and CC. *)

open Rcoe_machine
open Rcoe_kernel
open Rcoe_core
open Rcoe_isa

(* A driver-like program exercising the FT interface directly:
   1. waits for a NIC interrupt,
   2. reads RX_COUNT / RX_ADDR / RX_LEN via FT_Mem_Access,
   3. pulls the packet in via FT_Mem_Rep,
   4. doubles every payload word,
   5. stages the response in the DMA TX area, votes on it with
      FT_Add_Trace, and rings the doorbell via a 3-register FT write.
   FT_Mem_Rep's return code is kept in "rc". With [~spin], the
   doorbell's register count stays in R8 across a [spin]-iteration
   compute loop before the write, a window in which a test can corrupt
   one replica's copy. *)
let driver_program ?(spin = 0) () =
  let a = Asm.create "ftdrv" in
  let open Reg in
  Asm.space a "regs" 4;
  Asm.space a "buf" 64;
  Asm.space a "ctl" 3;
  Asm.space a "rc" 1;
  Asm.data a "one" [| 1 |];
  let mmio r = Layout.va_mmio + r in
  let txo = 8 * Layout.page_size in
  Asm.label a "main";
  Asm.movi a R0 0;
  Asm.syscall a Syscall.sys_wait_irq;
  (* rx_count -> regs[0] *)
  Asm.movi a R0 0;
  Asm.movi a R1 (mmio Netdev.reg_rx_count);
  Asm.la a R2 "regs";
  Asm.movi a R3 1;
  Asm.syscall a Syscall.sys_ft_mem_access;
  (* rx_addr, rx_len -> regs[1], regs[2] *)
  Asm.movi a R0 0;
  Asm.movi a R1 (mmio Netdev.reg_rx_addr);
  Asm.la a R2 "regs";
  Asm.addi a R2 R2 1;
  Asm.movi a R3 2;
  Asm.syscall a Syscall.sys_ft_mem_access;
  (* packet -> buf *)
  Asm.la a R15 "regs";
  Asm.ld a R5 R15 2;
  Asm.ld a R6 R15 1;
  Asm.la a R0 "buf";
  Asm.mov a R1 R5;
  Asm.mov a R2 R6;
  Asm.syscall a Syscall.sys_ft_mem_rep;
  Asm.la a R15 "rc";
  Asm.st a R15 R0 0;
  (* consume descriptor *)
  Asm.movi a R0 1;
  Asm.movi a R1 (mmio Netdev.reg_rx_consume);
  Asm.la a R2 "one";
  Asm.movi a R3 1;
  Asm.syscall a Syscall.sys_ft_mem_access;
  (* double every word in place *)
  Asm.la a R4 "buf";
  Asm.movi a R6 0;
  Asm.while_ a Instr.Lt R6 (Instr.Reg R5) (fun () ->
      Asm.ld a R7 R4 0;
      Asm.add a R7 R7 R7;
      Asm.st a R4 R7 0;
      Asm.addi a R4 R4 1;
      Asm.addi a R6 R6 1);
  (* stage in the TX DMA area *)
  Asm.movi a R0 (Layout.va_dma + txo);
  Asm.la a R1 "buf";
  Asm.mov a R2 R5;
  Asm.emit a Instr.Rep_movs;
  (* output voting, then doorbell (addr, len, go) *)
  Asm.la a R0 "buf";
  Asm.mov a R1 R5;
  Asm.syscall a Syscall.sys_ft_add_trace;
  Asm.la a R15 "ctl";
  Asm.movi a R12 txo;
  Asm.st a R15 R12 0;
  Asm.st a R15 R5 1;
  Asm.movi a R12 1;
  Asm.st a R15 R12 2;
  Asm.movi a R8 3;
  if spin > 0 then
    Asm.for_up a R10 ~start:0 ~stop:(Instr.Imm spin) (fun () ->
        Asm.addi a R11 R11 1);
  Asm.movi a R0 1;
  Asm.movi a R1 (mmio Netdev.reg_tx_addr);
  Asm.la a R2 "ctl";
  Asm.mov a R3 R8;
  Asm.syscall a Syscall.sys_ft_mem_access;
  Asm.syscall a Syscall.sys_exit;
  Asm.assemble ~entry:"main" a

let driver_config ~mode ~n =
  {
    Config.default with
    Config.mode;
    nreplicas = n;
    with_net = true;
    tick_interval = 20_000;
    barrier_timeout = 400_000;
  }

let run_driver ~mode ~n =
  let sys =
    System.create ~config:(driver_config ~mode ~n) ~program:(driver_program ())
  in
  let net = Option.get (System.netdev sys) in
  Netdev.inject net ~now:0 [| 5; 10; 20 |];
  System.run sys ~max_cycles:5_000_000;
  (sys, net)

let check_response name (sys, net) =
  (match System.halted sys with
  | Some h -> Alcotest.failf "%s halted: %s" name (System.halt_reason_to_string h)
  | None -> ());
  Alcotest.(check bool) (name ^ " finished") true (System.finished sys);
  match Netdev.take_tx net with
  | [ (_, payload) ] ->
      Alcotest.(check (array int)) (name ^ " doubled payload")
        [| 10; 20; 40 |] payload
  | other -> Alcotest.failf "%s: expected 1 packet, got %d" name (List.length other)

let test_ft_roundtrip_base () = check_response "base" (run_driver ~mode:Config.Base ~n:1)
let test_ft_roundtrip_lc () = check_response "lc-d" (run_driver ~mode:Config.LC ~n:2)
let test_ft_roundtrip_cc () = check_response "cc-d" (run_driver ~mode:Config.CC ~n:2)
let test_ft_roundtrip_cc_tmr () = check_response "cc-t" (run_driver ~mode:Config.CC ~n:3)

let test_ft_replicates_input_to_all () =
  let sys, _ = run_driver ~mode:Config.CC ~n:3 in
  let p = driver_program () in
  let buf = Program.data_addr p "buf" in
  for rid = 0 to 2 do
    Alcotest.(check (list int))
      (Printf.sprintf "replica %d saw doubled input" rid)
      [ 10; 20; 40 ]
      (List.init 3 (fun i ->
           Kernel.read_user (System.kernel sys rid) ~va:(buf + i)))
  done

let test_output_voting_catches_divergent_response () =
  (* Corrupt one replica's response buffer before the trace vote: the
     doorbell must never ring and the system must halt on a mismatch. *)
  let config =
    {
      Config.default with
      Config.mode = Config.LC;
      nreplicas = 2;
      with_net = true;
      tick_interval = 20_000;
      barrier_timeout = 300_000;
    }
  in
  let program = driver_program () in
  let sys = System.create ~config ~program in
  let net = Option.get (System.netdev sys) in
  Netdev.inject net ~now:0 [| 7; 8; 9 |];
  (* Find replica 1's "buf" physical address and corrupt it as soon as the
     data lands, racing ahead of the trace vote. *)
  let buf_va = Program.data_addr program "buf" in
  let corrupted = ref false in
  let stop s =
    if not !corrupted then begin
      match Kernel.read_user (System.kernel s 1) ~va:buf_va with
      | 7 | 14 ->
          (* Input (or doubled input) has arrived at replica 1: flip it. *)
          Kernel.write_user (System.kernel s 1) ~va:buf_va 9999;
          corrupted := true;
          false
      | _ -> false
      | exception Kernel.User_mem_error _ -> false
    end
    else false
  in
  System.run sys ~stop ~max_cycles:5_000_000;
  System.run sys ~max_cycles:5_000_000;
  Alcotest.(check bool) "corruption staged" true !corrupted;
  Alcotest.(check bool) "mismatch detected" true
    (match System.halted sys with
    | Some System.H_mismatch -> true
    | _ -> false);
  Alcotest.(check (list (pair int pass))) "no packet escaped" []
    (Netdev.take_tx net)

let test_sync_vote_level_rendezvous_count () =
  (* At level S every syscall votes; at level A only FT calls do. *)
  let count_rdv level =
    let config =
      {
        Config.default with
        Config.mode = Config.LC;
        nreplicas = 2;
        sync_level = level;
        tick_interval = 50_000;
      }
    in
    let a = Asm.create "sys" in
    Asm.label a "main";
    Asm.for_up a Reg.R4 ~start:0 ~stop:(Instr.Imm 10) (fun () ->
        Asm.movi a Reg.R0 65;
        Asm.syscall a Syscall.sys_putchar);
    Asm.syscall a Syscall.sys_exit;
    let program = Asm.assemble ~entry:"main" a in
    let sys = System.create ~config ~program in
    System.run sys ~max_cycles:5_000_000;
    Alcotest.(check bool) "finished" true (System.finished sys);
    System.counter sys "sync.rendezvous"
  in
  let at_a = count_rdv Config.Sync_args in
  let at_s = count_rdv Config.Sync_vote in
  Alcotest.(check int) "no rendezvous at A" 0 at_a;
  Alcotest.(check bool)
    (Printf.sprintf "one per syscall at S (%d)" at_s)
    true (at_s >= 10)

let test_base_ft_ops_direct () =
  (* In Base mode the FT calls act directly on the device — same driver
     program, no replication machinery. *)
  let sys, _ = run_driver ~mode:Config.Base ~n:1 in
  Alcotest.(check int) "no rounds" 0 (System.counter sys "sync.rounds")

(* Masking a faulty replica that diverged in its pending FT operation
   must still commit the survivors' operation. Replica 2's doorbell
   register count is corrupted while it spins, so it reaches the
   doorbell with different FT arguments: the vote removes it, and the
   survivors' write must still reach the NIC. With [spin = 2000] the
   divergence meets at the doorbell rendezvous; with [spin = 3626] a
   preemption tick's round catches the doorbell, so masking also has to
   deliver that round's tick. *)
let test_masked_divergent_ft_op_commits mode ~spin () =
  let config = { (driver_config ~mode ~n:3) with Config.masking = true } in
  let sys = System.create ~config ~program:(driver_program ~spin ()) in
  let net = Option.get (System.netdev sys) in
  Netdev.inject net ~now:0 [| 5; 10; 20 |];
  let regs s = (Kernel.core (System.kernel s 2)).Core.regs in
  let mid_spin s = (regs s).(Reg.index Reg.R10) > spin / 2 in
  System.run sys ~stop:mid_spin ~max_cycles:5_000_000;
  Alcotest.(check bool) "replica 2 stopped mid-spin" true (mid_spin sys);
  let r = regs sys and count = Reg.index Reg.R8 in
  r.(count) <- r.(count) lxor 1;
  System.run sys ~max_cycles:5_000_000;
  Alcotest.(check (list int)) "replica 2 removed" [ 2 ]
    (List.map (fun (_, rid, _) -> rid) (System.downgrades sys));
  check_response "masked" (sys, net)

(* The Base-mode kernel ingress check: FT_Mem_Rep verifies the frame
   against RX_CSUM. A clean frame passes; a frame with a bit flipped in
   its DMA buffer is NACKed and FT_Mem_Rep returns 1. *)
let test_base_ingress_check () =
  let run ~flip =
    let config =
      { (driver_config ~mode:Config.Base ~n:1) with Config.ingress_check = true }
    in
    let program = driver_program () in
    let sys = System.create ~config ~program in
    let net = Option.get (System.netdev sys) in
    Netdev.inject net ~now:0 [| 5; 10; 20 |];
    while Netdev.head_rx net = None do
      System.run sys ~max_cycles:1
    done;
    (if flip then
       let base, _ = Netdev.rx_region_bounds net in
       let off, _ = Option.get (Netdev.head_rx net) in
       Mem.flip_bit (System.machine sys).Machine.mem ~addr:(base + off) ~bit:0);
    System.run sys ~max_cycles:5_000_000;
    let rc =
      Kernel.read_user (System.kernel sys 0) ~va:(Program.data_addr program "rc")
    in
    (sys, net, rc)
  in
  let drops sys =
    List.filter
      (fun (_, e) -> match e with System.E_ingress_drop _ -> true | _ -> false)
      (System.events sys)
  in
  let sys, net, rc = run ~flip:false in
  Alcotest.(check int) "clean: checked" 1 (System.counter sys "net.ingress_checked");
  Alcotest.(check int) "clean: dropped" 0 (System.counter sys "net.ingress_dropped");
  Alcotest.(check int) "clean: FT_Mem_Rep ok" 0 rc;
  check_response "clean" (sys, net);
  let sys, net, rc = run ~flip:true in
  Alcotest.(check int) "flipped: FT_Mem_Rep NACKs" 1 rc;
  Alcotest.(check int) "flipped: one drop event" 1 (List.length (drops sys));
  Alcotest.(check int) "flipped: dropped" 1 (System.counter sys "net.ingress_dropped");
  Alcotest.(check int) "flipped: NIC saw the NACK" 1 (Netdev.rx_nacked net)

let suite =
  [
    Alcotest.test_case "FT roundtrip (base)" `Quick test_ft_roundtrip_base;
    Alcotest.test_case "FT roundtrip (LC-D)" `Quick test_ft_roundtrip_lc;
    Alcotest.test_case "FT roundtrip (CC-D)" `Quick test_ft_roundtrip_cc;
    Alcotest.test_case "FT roundtrip (CC-T)" `Quick test_ft_roundtrip_cc_tmr;
    Alcotest.test_case "FT replicates input to every replica" `Quick
      test_ft_replicates_input_to_all;
    Alcotest.test_case "output voting blocks divergent response" `Quick
      test_output_voting_catches_divergent_response;
    Alcotest.test_case "sync level S votes per syscall" `Quick
      test_sync_vote_level_rendezvous_count;
    Alcotest.test_case "base FT ops act directly" `Quick test_base_ft_ops_direct;
    Alcotest.test_case "masked divergent FT op commits (LC-T rendezvous)"
      `Quick (test_masked_divergent_ft_op_commits Config.LC ~spin:2000);
    Alcotest.test_case "masked divergent FT op commits (CC-T rendezvous)"
      `Quick (test_masked_divergent_ft_op_commits Config.CC ~spin:2000);
    Alcotest.test_case "masked divergent FT op commits (LC-T tick round)"
      `Quick (test_masked_divergent_ft_op_commits Config.LC ~spin:3626);
    Alcotest.test_case "masked divergent FT op commits (CC-T tick round)"
      `Quick (test_masked_divergent_ft_op_commits Config.CC ~spin:3626);
    Alcotest.test_case "base kernel ingress check" `Quick test_base_ingress_check;
  ]
