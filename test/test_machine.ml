open Rcoe_machine
open Rcoe_isa

(* --- Mem --------------------------------------------------------------- *)

let test_mem_rw () =
  let m = Mem.create 64 in
  Mem.write m 5 42;
  Alcotest.(check int) "read back" 42 (Mem.read m 5);
  Alcotest.(check int) "zero init" 0 (Mem.read m 6)

let test_mem_bounds () =
  let m = Mem.create 8 in
  Alcotest.check_raises "oob read" (Mem.Abort 8) (fun () -> ignore (Mem.read m 8));
  Alcotest.check_raises "neg write" (Mem.Abort (-1)) (fun () -> Mem.write m (-1) 0)

let test_mem_flip () =
  let m = Mem.create 8 in
  Mem.write m 3 0b1010;
  Mem.flip_bit m ~addr:3 ~bit:0;
  Alcotest.(check int) "flip sets" 0b1011 (Mem.read m 3);
  Mem.flip_bit m ~addr:3 ~bit:0;
  Alcotest.(check int) "flip clears" 0b1010 (Mem.read m 3)

let test_mem_blit () =
  let m = Mem.create 32 in
  Mem.write_block m 0 [| 1; 2; 3; 4 |];
  Mem.blit m ~src:0 ~dst:10 ~len:4;
  Alcotest.(check (array int)) "copied" [| 1; 2; 3; 4 |] (Mem.read_block m 10 4)

(* --- Bus --------------------------------------------------------------- *)

let test_bus_tokens () =
  let b = Bus.create ~rate:1.0 in
  (* Initial burst allowance of 4. *)
  Alcotest.(check bool) "burst" true (Bus.try_acquire b 4);
  Alcotest.(check bool) "exhausted" false (Bus.try_acquire b 1);
  Bus.tick b;
  Alcotest.(check bool) "refilled" true (Bus.try_acquire b 1)

let test_bus_rate_caps_throughput () =
  let b = Bus.create ~rate:0.5 in
  ignore (Bus.try_acquire b 4);
  let got = ref 0 in
  for _ = 1 to 100 do
    Bus.tick b;
    if Bus.try_acquire b 1 then incr got
  done;
  Alcotest.(check bool) "about half" true (!got >= 45 && !got <= 55)

let test_bus_no_alloc () =
  (* Every burst cycle ticks a lane, so the pair must not allocate. *)
  let b = Bus.create ~rate:(2.0 /. 3.0) in
  let pairs () =
    for _ = 1 to 10_000 do
      Bus.tick b;
      ignore (Bus.try_acquire b 1 : bool)
    done
  in
  pairs ();
  let before = Gc.minor_words () in
  pairs ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0)) "minor words for 10k tick + try_acquire" 0.0
    words

let test_bus_advance_equals_ticks () =
  (* [advance] stops once the lane is full; from a drained lane it must
     land on the credit [k] ticks reach, bit for bit, whether the lane
     fills on the way or not. The rates are the x86 TMR, a starved and
     the Arm TMR lane. *)
  let drained rate =
    let b = Bus.create ~rate in
    ignore (Bus.try_acquire b 4 : bool);
    b
  in
  List.iter
    (fun rate ->
      List.iter
        (fun k ->
          let a = drained rate and b = drained rate in
          Bus.advance a ~cycles:k;
          for _ = 1 to k do
            Bus.tick b
          done;
          if Bus.state a <> Bus.state b then
            Alcotest.failf "rate %g: advance %d differs from %d ticks" rate k k)
        (List.init 51 Fun.id @ [ 100_000 ]))
    [ 2.0 /. 3.0; 0.1; 1.6 /. 3.0 ]

(* --- Page tables -------------------------------------------------------- *)

let test_pte_roundtrip () =
  let ptes =
    [
      Page_table.invalid_pte;
      { Page_table.valid = true; writable = true; dma = false; device = false; ppn = 7 };
      { Page_table.valid = true; writable = false; dma = true; device = false; ppn = 123 };
      { Page_table.valid = true; writable = true; dma = false; device = true; ppn = 2 };
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) "roundtrip" true
        (Page_table.decode (Page_table.encode p) = p);
      (* Bit 4 carries nothing: a flip there stays benign. *)
      Alcotest.(check bool) "decode ignores bit 4" true
        (Page_table.decode (Page_table.encode p lxor 16) = p))
    ptes

let mk_table () =
  let m = Mem.create 4096 in
  let t = { Page_table.base = 0; npages = 8 } in
  Page_table.clear m t;
  (m, t)

let test_translate_unmapped () =
  let m, t = mk_table () in
  Alcotest.(check bool) "no mapping" true
    (Page_table.translate m t ~vaddr:0 ~write:false = Page_table.No_mapping)

let test_translate_basic () =
  let m, t = mk_table () in
  Page_table.set m t ~vpn:1
    { Page_table.valid = true; writable = false; dma = false; device = false; ppn = 3 };
  let va = Page_table.page_size + 17 in
  Alcotest.(check bool) "reads" true
    (Page_table.translate m t ~vaddr:va ~write:false
    = Page_table.Phys ((3 * Page_table.page_size) + 17));
  Alcotest.(check bool) "write protected" true
    (Page_table.translate m t ~vaddr:va ~write:true = Page_table.Not_writable)

let test_translate_device () =
  let m, t = mk_table () in
  Page_table.set m t ~vpn:2
    { Page_table.valid = true; writable = true; dma = false; device = true; ppn = 5 };
  Alcotest.(check bool) "device" true
    (Page_table.translate m t ~vaddr:((2 * Page_table.page_size) + 9) ~write:true
    = Page_table.Device (5, 9))

let test_translate_out_of_range_vpn () =
  let m, t = mk_table () in
  Alcotest.(check bool) "beyond table" true
    (Page_table.translate m t ~vaddr:(100 * Page_table.page_size) ~write:false
    = Page_table.No_mapping)

let test_corrupt_pte_reaches_bad_frame () =
  (* The Table VII mechanism: a flipped PTE bit really changes where the
     access lands. *)
  let m, t = mk_table () in
  Page_table.set m t ~vpn:0
    { Page_table.valid = true; writable = true; dma = false; device = false; ppn = 1 };
  Mem.flip_bit m ~addr:t.Page_table.base ~bit:9 (* ppn bit 1 *);
  match Page_table.translate m t ~vaddr:5 ~write:false with
  | Page_table.Phys p ->
      Alcotest.(check int) "frame changed" ((3 * Page_table.page_size) + 5) p
  | _ -> Alcotest.fail "expected Phys"

(* --- Core execution ----------------------------------------------------- *)

(* Virtual addresses 0-4095 map one to one onto RAM; the page table
   sits above them. *)
let mk_env ?(profile = Arch.x86) code_list =
  let pt = { Page_table.base = 4096; npages = 4096 / Page_table.page_size } in
  let mem = Mem.create (4096 + pt.Page_table.npages) in
  for vpn = 0 to pt.Page_table.npages - 1 do
    Page_table.set mem pt ~vpn
      { Page_table.valid = true; writable = true; dma = false; device = false;
        ppn = vpn }
  done;
  let env =
    {
      Core.code = Array.of_list code_list;
      mem;
      pt;
      dev_read = (fun _ _ -> 0);
      dev_write = (fun _ _ _ -> ());
      bus = Bus.create ~rate:100.0;
      profile = { profile with Arch.jitter_p = 0.0 };
      trace = Rcoe_obs.Trace.disabled ();
    }
  in
  (Core.create ~id:0 ~jitter_seed:1, env)

(* Unit tests drive the core directly, so they must also advance the bus
   (normally [Kernel.step]'s job) or memory operations starve of credits. *)
let step core env =
  Bus.tick env.Core.bus;
  Core.step core env

let run_until_event core env ~fuel =
  let rec go fuel =
    if fuel = 0 then None
    else
      match step core env with
      | Core.Event e -> Some e
      | Core.Ran -> go (fuel - 1)
  in
  go fuel

let test_core_arith () =
  let open Instr in
  let core, env =
    mk_env
      [
        Mov (Reg.R1, Imm 6);
        Alu (Mul, Reg.R2, Reg.R1, Imm 7);
        Alu (Sub, Reg.R2, Reg.R2, Imm 2);
        Syscall 0;
      ]
  in
  (match run_until_event core env ~fuel:10 with
  | Some (Core.Ev_syscall 0) -> ()
  | _ -> Alcotest.fail "expected syscall");
  Alcotest.(check int) "6*7-2" 40 core.Core.regs.(2)

let test_core_memory () =
  let open Instr in
  let core, env =
    mk_env
      [
        Mov (Reg.R1, Imm 100);
        Mov (Reg.R2, Imm 55);
        St (Reg.R1, Reg.R2, 3);
        Ld (Reg.R3, Reg.R1, 3);
        Syscall 0;
      ]
  in
  ignore (run_until_event core env ~fuel:20);
  Alcotest.(check int) "store/load" 55 core.Core.regs.(3);
  Alcotest.(check int) "in memory" 55 (Mem.read env.Core.mem 103)

let test_core_push_pop () =
  let open Instr in
  let core, env =
    mk_env
      [
        Mov (Reg.R13, Imm 200);
        Mov (Reg.R1, Imm 9);
        Push Reg.R1;
        Mov (Reg.R1, Imm 0);
        Pop Reg.R2;
        Syscall 0;
      ]
  in
  ignore (run_until_event core env ~fuel:20);
  Alcotest.(check int) "pop" 9 core.Core.regs.(2);
  Alcotest.(check int) "sp restored" 200 core.Core.regs.(13)

let test_core_branch_counting_hw () =
  let open Instr in
  (* Loop 5 times: 5 taken back-branches + 1 final not-taken + 1 jmp = 7
     branch executions in hardware counting mode. *)
  let core, env =
    mk_env
      [
        Mov (Reg.R1, Imm 0);
        (* 1: *) Alu (Add, Reg.R1, Reg.R1, Imm 1);
        B (Lt, Reg.R1, Imm 5, Abs 1);
        Jmp (Abs 4);
        Syscall 0;
      ]
  in
  ignore (run_until_event core env ~fuel:50);
  Alcotest.(check int) "hw branch count" 6 core.Core.hw_branches;
  Alcotest.(check int) "loop ran" 5 core.Core.regs.(1)

let test_core_cntinc_is_architectural () =
  let open Instr in
  let core, env =
    mk_env ~profile:Arch.arm [ Cntinc; Cntinc; Syscall 0 ]
  in
  ignore (run_until_event core env ~fuel:10);
  Alcotest.(check int) "r9 = 2" 2 core.Core.regs.(9);
  Alcotest.(check int) "compiler-mode count" 2 (Core.branch_count core Arch.arm)

let test_core_last_was_cntinc () =
  let open Instr in
  let core, env = mk_env ~profile:Arch.arm [ Cntinc; Nop; Syscall 0 ] in
  (match step core env with
  | Core.Ran -> ()
  | _ -> Alcotest.fail "step");
  Alcotest.(check bool) "flag set after cntinc" true core.Core.last_was_cntinc;
  ignore (step core env);
  Alcotest.(check bool) "flag cleared by next instr" false core.Core.last_was_cntinc

let test_core_div_by_zero () =
  let open Instr in
  let core, env =
    mk_env [ Mov (Reg.R1, Imm 0); Alu (Div, Reg.R2, Reg.R1, Reg Reg.R1) ]
  in
  match run_until_event core env ~fuel:10 with
  | Some (Core.Ev_fault Core.Division_by_zero) -> ()
  | _ -> Alcotest.fail "expected division fault"

let test_core_unmapped_fault () =
  let open Instr in
  let core, env = mk_env [ Mov (Reg.R1, Imm 100_000); Ld (Reg.R2, Reg.R1, 0) ] in
  match run_until_event core env ~fuel:10 with
  | Some (Core.Ev_fault (Core.Unmapped { vaddr = 100_000; write = false })) -> ()
  | _ -> Alcotest.fail "expected unmapped fault"

let test_core_bad_ip () =
  let open Instr in
  let core, env = mk_env [ Jmp (Abs 0) ] in
  core.Core.ip <- 77;
  match run_until_event core env ~fuel:5 with
  | Some (Core.Ev_fault (Core.Bad_ip 77)) -> ()
  | _ -> Alcotest.fail "expected bad ip"

let test_core_rep_movs_interruptible () =
  let open Instr in
  let core, env =
    mk_env
      [
        Mov (Reg.R0, Imm 300);
        Mov (Reg.R1, Imm 100);
        Mov (Reg.R2, Imm 8);
        Rep_movs;
        Syscall 0;
      ]
  in
  for i = 0 to 7 do
    Mem.write env.Core.mem (100 + i) (i * 11)
  done;
  (* Step the three movs. *)
  for _ = 1 to 3 do
    ignore (step core env)
  done;
  (* One word per step; registers stay consistent mid-copy. *)
  ignore (step core env);
  Alcotest.(check int) "one word copied" 7 core.Core.regs.(2);
  Alcotest.(check int) "src advanced" 101 core.Core.regs.(1);
  Alcotest.(check bool) "still at rep" true (Core.rep_in_progress core env);
  ignore (run_until_event core env ~fuel:20);
  for i = 0 to 7 do
    Alcotest.(check int) "copied" (i * 11) (Mem.read env.Core.mem (300 + i))
  done;
  Alcotest.(check int) "rep does not count branches" 0 core.Core.hw_branches

let test_core_breakpoint_and_resume_flag () =
  let open Instr in
  let core, env =
    mk_env [ Mov (Reg.R1, Imm 1); Mov (Reg.R2, Imm 2); Syscall 0 ]
  in
  core.Core.bp <- Some 1;
  (match run_until_event core env ~fuel:5 with
  | Some Core.Ev_breakpoint -> ()
  | _ -> Alcotest.fail "expected breakpoint");
  Alcotest.(check int) "stopped before instr" 1 core.Core.ip;
  Alcotest.(check int) "r2 untouched" 0 core.Core.regs.(2);
  (* Resume-flag semantics: suppress once, execute, re-arm. *)
  core.Core.bp_suppress <- true;
  (match run_until_event core env ~fuel:5 with
  | Some (Core.Ev_syscall 0) -> ()
  | _ -> Alcotest.fail "expected completion");
  Alcotest.(check int) "r2 set" 2 core.Core.regs.(2)

let test_core_breakpoint_refires_in_loop () =
  let open Instr in
  let core, env =
    mk_env
      [
        Mov (Reg.R1, Imm 0);
        (* 1: *) Alu (Add, Reg.R1, Reg.R1, Imm 1);
        B (Lt, Reg.R1, Imm 3, Abs 1);
        Syscall 0;
      ]
  in
  core.Core.bp <- Some 1;
  let fires = ref 0 in
  let rec go fuel =
    if fuel = 0 then ()
    else
      match step core env with
      | Core.Event Core.Ev_breakpoint ->
          incr fires;
          core.Core.bp_suppress <- true;
          go (fuel - 1)
      | Core.Event (Core.Ev_syscall _) -> ()
      | _ -> go (fuel - 1)
  in
  go 50;
  Alcotest.(check int) "fires once per pass" 3 !fires

let test_core_exclusive_monitor () =
  let open Instr in
  let core, env =
    mk_env
      [
        Mov (Reg.R1, Imm 100);
        Ldex (Reg.R2, Reg.R1);
        Stex (Reg.R3, Reg.R2, Reg.R1);
        Ldex (Reg.R2, Reg.R1);
        Nop;
        Stex (Reg.R4, Reg.R2, Reg.R1);
        Syscall 0;
      ]
  in
  (* Clear the monitor between the second ldex/stex pair, as a kernel
     entry would. *)
  for _ = 1 to 3 do
    ignore (step core env)
  done;
  Alcotest.(check int) "first stex succeeded" 0 core.Core.regs.(3);
  ignore (step core env);
  Core.clear_exclusive core;
  ignore (run_until_event core env ~fuel:10);
  Alcotest.(check int) "second stex failed" 1 core.Core.regs.(4)

let test_core_atomic_add () =
  let open Instr in
  let core, env =
    mk_env
      [ Mov (Reg.R1, Imm 64); Atomic_add (Reg.R2, Reg.R1, Imm 5); Syscall 0 ]
  in
  Mem.write env.Core.mem 64 10;
  ignore (run_until_event core env ~fuel:10);
  Alcotest.(check int) "returns old" 10 core.Core.regs.(2);
  Alcotest.(check int) "adds" 15 (Mem.read env.Core.mem 64)

let test_core_float_ops () =
  let open Instr in
  let core, env =
    mk_env
      [
        Fldi (Reg.F0, 9.0);
        Funop (Fsqrt, Reg.F1, Reg.F0);
        Falu (Fmul, Reg.F2, Reg.F1, Reg.F1);
        Syscall 0;
      ]
  in
  ignore (run_until_event core env ~fuel:10);
  Alcotest.(check (float 1e-9)) "sqrt" 3.0 core.Core.fregs.(1);
  Alcotest.(check (float 1e-9)) "square" 9.0 core.Core.fregs.(2)

(* --- Machine / devices / IPIs ------------------------------------------- *)

let test_machine_ipi_latency () =
  let m = Machine.create ~profile:Arch.x86 ~mem_words:1024 ~ncores:2 ~seed:1 () in
  let visible () = m.Machine.ipi_pending.(1) <= m.Machine.now in
  Machine.send_ipi m ~target:1;
  Alcotest.(check bool) "not yet" false (visible ());
  for _ = 1 to Arch.x86.Arch.ipi_latency + 1 do
    Machine.tick m
  done;
  Alcotest.(check bool) "visible" true (visible ());
  Machine.clear_ipi m ~core_id:1;
  Alcotest.(check bool) "cleared" false (visible ())

let test_machine_irq_routing () =
  let m = Machine.create ~profile:Arch.x86 ~mem_words:8192 ~ncores:2 ~seed:1 () in
  let nd = Netdev.create ~mem:m.Machine.mem ~dma_base:0 ~dma_words:4096 in
  let dpn = Machine.add_device m (Netdev.device nd) in
  Netdev.inject nd ~now:0 [| 1; 2; 3 |];
  Machine.tick m;
  Alcotest.(check (option int)) "routed to core 0" (Some dpn)
    (Machine.pending_irq m ~core_id:0);
  Alcotest.(check (option int)) "not core 1" None (Machine.pending_irq m ~core_id:1);
  Machine.route_irqs_to m 1;
  Alcotest.(check (option int)) "re-routed" (Some dpn)
    (Machine.pending_irq m ~core_id:1)

(* --- Netdev -------------------------------------------------------------- *)

let mk_net () =
  let m = Machine.create ~profile:Arch.x86 ~mem_words:16384 ~ncores:1 ~seed:1 () in
  let nd = Netdev.create ~mem:m.Machine.mem ~dma_base:8192 ~dma_words:4096 in
  (m, nd)

let test_netdev_rx_flow () =
  let m, nd = mk_net () in
  Netdev.inject nd ~now:0 [| 10; 20; 30 |];
  Machine.tick m |> ignore;
  (Netdev.device nd).Device.dev_tick ~now:1;
  let dev = Netdev.device nd in
  Alcotest.(check int) "one pending" 1 (dev.Device.read_reg Netdev.reg_rx_count);
  let off = dev.Device.read_reg Netdev.reg_rx_addr in
  let len = dev.Device.read_reg Netdev.reg_rx_len in
  Alcotest.(check int) "len" 3 len;
  Alcotest.(check int) "payload in DMA" 20 (Mem.read m.Machine.mem (8192 + off + 1));
  Alcotest.(check bool) "irq up" true (dev.Device.irq_pending ());
  dev.Device.irq_ack ();
  Alcotest.(check bool) "irq acked" false (dev.Device.irq_pending ());
  dev.Device.write_reg Netdev.reg_rx_consume 1;
  Alcotest.(check int) "consumed" 0 (dev.Device.read_reg Netdev.reg_rx_count)

let test_netdev_tx_flow () =
  let m, nd = mk_net () in
  let dev = Netdev.device nd in
  Mem.write_block m.Machine.mem (8192 + 2048) [| 5; 6; 7; 8 |];
  dev.Device.write_reg Netdev.reg_tx_addr 2048;
  dev.Device.write_reg Netdev.reg_tx_len 4;
  dev.Device.write_reg Netdev.reg_tx_doorbell 1;
  match Netdev.take_tx nd with
  | [ (_, payload) ] ->
      Alcotest.(check (array int)) "payload" [| 5; 6; 7; 8 |] payload
  | _ -> Alcotest.fail "expected one packet"

let test_netdev_wedge () =
  let m, nd = mk_net () in
  Netdev.set_wedged nd true;
  Netdev.inject nd ~now:0 [| 1 |];
  for _ = 1 to 5 do Machine.tick m done;
  (Netdev.device nd).Device.dev_tick ~now:5;
  Alcotest.(check int) "nothing delivered" 0
    ((Netdev.device nd).Device.read_reg Netdev.reg_rx_count);
  Alcotest.(check int) "still queued" 1 (Netdev.pending_host_packets nd)

let test_netdev_ring_overflow_drops () =
  let m, nd = mk_net () in
  (* Ring has dma_words/2/slot_words = 32 slots; inject 40 and never
     consume. *)
  ignore m;
  for i = 1 to 40 do
    Netdev.inject nd ~now:0 [| i |]
  done;
  for t = 1 to 50 do (Netdev.device nd).Device.dev_tick ~now:t done;
  Alcotest.(check int) "ring full" 32
    ((Netdev.device nd).Device.read_reg Netdev.reg_rx_count);
  Alcotest.(check bool) "queued or dropped" true
    (Netdev.pending_host_packets nd = 8)

let test_netdev_oversize_rejected () =
  let _, nd = mk_net () in
  Alcotest.(check bool) "raises" true
    (try Netdev.inject nd ~now:0 (Array.make 100 0); false
     with Invalid_argument _ -> true)

(* QCheck: ALU reference semantics. *)
let qcheck_alu_add_sub =
  QCheck.Test.make ~name:"core add/sub/mul vs OCaml semantics" ~count:300
    QCheck.(pair (int_range (-100000) 100000) (int_range (-1000) 1000))
    (fun (x, y) ->
      let open Instr in
      let core, env =
        mk_env
          [
            Mov (Reg.R1, Imm x);
            Alu (Add, Reg.R2, Reg.R1, Imm y);
            Alu (Sub, Reg.R3, Reg.R1, Imm y);
            Alu (Mul, Reg.R4, Reg.R1, Imm y);
            Syscall 0;
          ]
      in
      ignore (run_until_event core env ~fuel:10);
      core.Core.regs.(2) = x + y
      && core.Core.regs.(3) = x - y
      && core.Core.regs.(4) = x * y)

let suite =
  [
    Alcotest.test_case "mem read/write" `Quick test_mem_rw;
    Alcotest.test_case "mem bounds abort" `Quick test_mem_bounds;
    Alcotest.test_case "mem bit flip" `Quick test_mem_flip;
    Alcotest.test_case "mem blit" `Quick test_mem_blit;
    Alcotest.test_case "bus tokens" `Quick test_bus_tokens;
    Alcotest.test_case "bus rate caps throughput" `Quick test_bus_rate_caps_throughput;
    Alcotest.test_case "bus advance by k equals k ticks" `Quick
      test_bus_advance_equals_ticks;
    Alcotest.test_case "bus tick + acquire allocate nothing" `Quick
      test_bus_no_alloc;
    Alcotest.test_case "pte roundtrip" `Quick test_pte_roundtrip;
    Alcotest.test_case "translate unmapped" `Quick test_translate_unmapped;
    Alcotest.test_case "translate basic + write protect" `Quick test_translate_basic;
    Alcotest.test_case "translate device" `Quick test_translate_device;
    Alcotest.test_case "translate out-of-range vpn" `Quick
      test_translate_out_of_range_vpn;
    Alcotest.test_case "corrupt PTE redirects access" `Quick
      test_corrupt_pte_reaches_bad_frame;
    Alcotest.test_case "core arithmetic" `Quick test_core_arith;
    Alcotest.test_case "core memory" `Quick test_core_memory;
    Alcotest.test_case "core push/pop" `Quick test_core_push_pop;
    Alcotest.test_case "hw branch counting" `Quick test_core_branch_counting_hw;
    Alcotest.test_case "cntinc is architectural (r9)" `Quick
      test_core_cntinc_is_architectural;
    Alcotest.test_case "counter-race flag" `Quick test_core_last_was_cntinc;
    Alcotest.test_case "division by zero faults" `Quick test_core_div_by_zero;
    Alcotest.test_case "unmapped access faults" `Quick test_core_unmapped_fault;
    Alcotest.test_case "bad ip faults" `Quick test_core_bad_ip;
    Alcotest.test_case "rep-movs word-by-word, interruptible" `Quick
      test_core_rep_movs_interruptible;
    Alcotest.test_case "breakpoint + resume flag" `Quick
      test_core_breakpoint_and_resume_flag;
    Alcotest.test_case "breakpoint refires in loop" `Quick
      test_core_breakpoint_refires_in_loop;
    Alcotest.test_case "exclusive monitor cleared by kernel" `Quick
      test_core_exclusive_monitor;
    Alcotest.test_case "atomic add" `Quick test_core_atomic_add;
    Alcotest.test_case "float ops" `Quick test_core_float_ops;
    Alcotest.test_case "ipi latency" `Quick test_machine_ipi_latency;
    Alcotest.test_case "irq routing" `Quick test_machine_irq_routing;
    Alcotest.test_case "netdev rx flow" `Quick test_netdev_rx_flow;
    Alcotest.test_case "netdev tx flow" `Quick test_netdev_tx_flow;
    Alcotest.test_case "netdev wedge" `Quick test_netdev_wedge;
    Alcotest.test_case "netdev ring overflow" `Quick test_netdev_ring_overflow_drops;
    Alcotest.test_case "netdev oversize rejected" `Quick test_netdev_oversize_rejected;
    QCheck_alcotest.to_alcotest qcheck_alu_add_sub;
  ]
