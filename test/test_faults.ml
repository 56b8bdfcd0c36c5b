open Rcoe_machine
open Rcoe_kernel
open Rcoe_faults

let lay3 = Layout.compute ~nreplicas:3 ~user_words:4096

(* --- Injector regions ------------------------------------------------- *)

let test_kernel_regions_cover_kernel_only () =
  let regions = Injector.kernel_regions lay3 in
  Alcotest.(check int) "3 kernels + shared" 4 (List.length regions);
  List.iteri
    (fun i r ->
      if i < 3 then begin
        let p = lay3.Layout.partitions.(i) in
        Alcotest.(check int) "starts at partition" p.Layout.p_base r.Injector.r_base;
        Alcotest.(check int) "ends at user" (p.Layout.user_base - p.Layout.p_base)
          r.Injector.r_words
      end)
    regions

let test_flips_stay_in_pools () =
  let mem = Mem.create lay3.Layout.total_words in
  let inj = Injector.create ~seed:7 (Injector.x86_campaign lay3) in
  for _ = 1 to 500 do
    let addr, bit, _name = Injector.flip_one inj mem in
    Alcotest.(check bool) "bit range" true (bit >= 0 && bit < 32);
    let where = Layout.partition_of_addr lay3 addr in
    let ok =
      match where with
      | `Shared | `Dma -> true
      | `Replica r -> (
          let p = lay3.Layout.partitions.(r) in
          (* x86 campaign: kernel region of any replica, or primary user *)
          addr < p.Layout.user_base || r = 0)
      | `Outside -> false
    in
    Alcotest.(check bool) "address in campaign" true ok
  done;
  Alcotest.(check int) "counted" 500 (Injector.flips inj)

let test_flip_actually_flips () =
  let mem = Mem.create lay3.Layout.total_words in
  let inj = Injector.create ~seed:3 (Injector.arm_campaign lay3) in
  let addr, bit, _ = Injector.flip_one inj mem in
  Alcotest.(check int) "bit set" (1 lsl bit) (Mem.read mem addr)

let test_injector_deterministic () =
  let mem1 = Mem.create lay3.Layout.total_words in
  let mem2 = Mem.create lay3.Layout.total_words in
  let i1 = Injector.create ~seed:42 (Injector.arm_campaign lay3) in
  let i2 = Injector.create ~seed:42 (Injector.arm_campaign lay3) in
  for _ = 1 to 50 do
    let a1, b1, _ = Injector.flip_one i1 mem1 in
    let a2, b2, _ = Injector.flip_one i2 mem2 in
    Alcotest.(check (pair int int)) "same sequence" (a1, b1) (a2, b2)
  done

let test_injector_order_independent () =
  (* Regions are sorted at [create]: the flip sequence depends only on
     the (seed, region set), not on how the caller built the list. *)
  let mem1 = Mem.create lay3.Layout.total_words in
  let mem2 = Mem.create lay3.Layout.total_words in
  let regions = Injector.arm_campaign lay3 in
  let i1 = Injector.create ~seed:42 regions in
  let i2 = Injector.create ~seed:42 (List.rev regions) in
  for _ = 1 to 50 do
    let a1, b1, _ = Injector.flip_one i1 mem1 in
    let a2, b2, _ = Injector.flip_one i2 mem2 in
    Alcotest.(check (pair int int)) "order-independent" (a1, b1) (a2, b2)
  done

let test_active_user_region_clamped () =
  let r = Injector.active_user_region lay3 ~rid:1 ~used_words:512 in
  Alcotest.(check int) "base" lay3.Layout.partitions.(1).Layout.user_base
    r.Injector.r_base;
  Alcotest.(check int) "clamped to used" 512 r.Injector.r_words;
  let huge = Injector.active_user_region lay3 ~rid:1 ~used_words:10_000_000 in
  Alcotest.(check int) "clamped to partition"
    lay3.Layout.partitions.(1).Layout.user_words huge.Injector.r_words

let test_injector_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try ignore (Injector.create ~seed:1 []); false
     with Invalid_argument _ -> true)

(* --- reg_flip_hook ----------------------------------------------------- *)

let test_reg_flip_hook_one_shot () =
  let mem = Mem.create 256 in
  let armed = ref true and count = ref 0 in
  let hook = Injector.reg_flip_hook ~seed:5 ~only_rid:0 ~armed ~count mem in
  hook ~rid:1 ~tid:0 ~ctx_addr:0;
  Alcotest.(check int) "wrong rid ignored" 0 !count;
  Alcotest.(check bool) "still armed" true !armed;
  hook ~rid:0 ~tid:0 ~ctx_addr:0;
  Alcotest.(check int) "fired" 1 !count;
  Alcotest.(check bool) "disarmed" false !armed;
  hook ~rid:0 ~tid:0 ~ctx_addr:0;
  Alcotest.(check int) "one-shot" 1 !count;
  (* Exactly one bit set in the register/ip area. *)
  let popcount = ref 0 in
  for i = 0 to Layout.ctx_words - 1 do
    let w = Mem.read mem i in
    let rec bits x = if x = 0 then 0 else (x land 1) + bits (x lsr 1) in
    popcount := !popcount + bits w
  done;
  Alcotest.(check int) "exactly one bit flipped" 1 !popcount

(* --- Outcome ------------------------------------------------------------ *)

let test_outcome_controlled_classes () =
  let open Outcome in
  List.iter
    (fun (o, expect) ->
      Alcotest.(check bool) (to_string o) expect (controlled o))
    [
      (No_error, true); (Masked, true); (Recovered, true);
      (Barrier_timeout, true);
      (Signature_mismatch, true); (Ycsb_corruption, false);
      (Ycsb_error, false); (User_mem_fault, false); (Kernel_exception, false);
      (System_reboot, false);
    ]

let test_outcome_tally () =
  let t = Outcome.tally_create () in
  Outcome.tally_add t Outcome.Masked;
  Outcome.tally_add t Outcome.Masked;
  Outcome.tally_add t Outcome.Ycsb_error;
  Alcotest.(check int) "get" 2 (Outcome.tally_get t Outcome.Masked);
  Alcotest.(check int) "total" 3 (Outcome.tally_total t);
  Alcotest.(check int) "controlled" 2 (Outcome.tally_controlled t);
  Alcotest.(check int) "uncontrolled" 1 (Outcome.tally_uncontrolled t)

(* --- Overclock ------------------------------------------------------------ *)

let test_overclock_deterministic () =
  let mem1 = Mem.create lay3.Layout.total_words in
  let mem2 = Mem.create lay3.Layout.total_words in
  let o1 = Overclock.create ~seed:9 lay3 in
  let o2 = Overclock.create ~seed:9 lay3 in
  for _ = 1 to 40 do
    Alcotest.(check string) "same events"
      (Overclock.event_to_string (Overclock.step o1 mem1))
      (Overclock.event_to_string (Overclock.step o2 mem2))
  done

let test_overclock_produces_all_kinds () =
  let mem = Mem.create lay3.Layout.total_words in
  let o = Overclock.create ~seed:123 lay3 in
  let bursts = ref 0 and regs = ref 0 and reboots = ref 0 and irqs = ref 0 in
  for _ = 1 to 3000 do
    match Overclock.step o mem with
    | Overclock.Burst _ -> incr bursts
    | Overclock.Reg_burst _ -> incr regs
    | Overclock.Reboot -> incr reboots
    | Overclock.Irq_loss -> incr irqs
  done;
  Alcotest.(check bool) "mem bursts occur" true (!bursts > 500);
  Alcotest.(check bool) "reg bursts dominate mem slightly" true (!regs > 1000);
  Alcotest.(check bool) "reboots rare" true (!reboots > 0 && !reboots < 40);
  Alcotest.(check bool) "irq loss rare" true (!irqs > 0 && !irqs < 60)

let test_overclock_respects_active_user () =
  (* With a tiny active-user bound, user-focused flips must stay within
     (focus - 32 .. focus + 32) of the first active page. *)
  let mem = Mem.create lay3.Layout.total_words in
  let o = Overclock.create ~active_user:(fun _ -> 256) ~seed:77 lay3 in
  for _ = 1 to 200 do
    match Overclock.step o mem with
    | Overclock.Burst flips ->
        List.iter
          (fun (addr, _) ->
            match Layout.partition_of_addr lay3 addr with
            | `Replica r ->
                let p = lay3.Layout.partitions.(r) in
                if addr >= p.Layout.user_base then
                  Alcotest.(check bool) "within active window" true
                    (addr < p.Layout.user_base + 256 + 32)
            | `Shared | `Dma | `Outside -> ())
          flips
    | _ -> ()
  done

(* End-to-end: a fault trial through the harness produces a classifiable
   outcome deterministically. *)
let test_trial_deterministic () =
  let t1 = Rcoe_harness.Fault_experiments.one_trial_for_debug
      ~mode:Rcoe_core.Config.LC ~n:2 ~seed:93 in
  let t2 = Rcoe_harness.Fault_experiments.one_trial_for_debug
      ~mode:Rcoe_core.Config.LC ~n:2 ~seed:93 in
  Alcotest.(check bool) "same outcome" true (fst t1 = fst t2);
  Alcotest.(check int) "same flip count" (snd t1) (snd t2)

(* A flipped page-table bit can make an FT operation's user copy
   translate outside physical memory. That is a kernel data abort on the
   copying replica — an uncontrolled kernel exception on x86 without
   exception barriers — not an exception escaping the simulator. *)
let test_ft_copy_phys_abort () =
  let outcome, _ =
    Rcoe_harness.Fault_experiments.one_trial_for_debug
      ~mode:Rcoe_core.Config.CC ~n:2 ~seed:961
  in
  Alcotest.(check string) "kernel exception"
    (Outcome.to_string Outcome.Kernel_exception)
    (Outcome.to_string outcome)

let suite =
  [
    Alcotest.test_case "kernel regions" `Quick test_kernel_regions_cover_kernel_only;
    Alcotest.test_case "flips stay in pools" `Quick test_flips_stay_in_pools;
    Alcotest.test_case "flip flips" `Quick test_flip_actually_flips;
    Alcotest.test_case "injector deterministic" `Quick test_injector_deterministic;
    Alcotest.test_case "injector region-order independent" `Quick
      test_injector_order_independent;
    Alcotest.test_case "active user region clamped" `Quick
      test_active_user_region_clamped;
    Alcotest.test_case "injector rejects empty" `Quick test_injector_rejects_empty;
    Alcotest.test_case "reg flip hook one-shot" `Quick test_reg_flip_hook_one_shot;
    Alcotest.test_case "outcome controlled classes" `Quick
      test_outcome_controlled_classes;
    Alcotest.test_case "outcome tally" `Quick test_outcome_tally;
    Alcotest.test_case "overclock deterministic" `Quick test_overclock_deterministic;
    Alcotest.test_case "overclock event mix" `Quick test_overclock_produces_all_kinds;
    Alcotest.test_case "overclock active-user bound" `Quick
      test_overclock_respects_active_user;
    Alcotest.test_case "fault trial deterministic" `Quick test_trial_deterministic;
    Alcotest.test_case "FT copy physical abort" `Quick test_ft_copy_phys_abort;
  ]
