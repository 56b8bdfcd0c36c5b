open Rcoe_core

type t =
  | No_error
  | Ycsb_corruption
  | Ycsb_error
  | User_mem_fault
  | User_other_fault
  | Kernel_exception
  | Barrier_timeout
  | Signature_mismatch
  | Masked
  | Recovered
  | Ingress_dropped
  | System_reboot

let to_string = function
  | No_error -> "no error"
  | Ycsb_corruption -> "YCSB corruptions"
  | Ycsb_error -> "YCSB errors"
  | User_mem_fault -> "User mem faults"
  | User_other_fault -> "Other user faults"
  | Kernel_exception -> "Kernel exceptions"
  | Barrier_timeout -> "Barrier timeouts"
  | Signature_mismatch -> "Signature mismatches"
  | Masked -> "Masked (downgraded)"
  | Recovered -> "Recovered (rolled back)"
  | Ingress_dropped -> "Ingress dropped (redelivered)"
  | System_reboot -> "System reboots"

let controlled = function
  | No_error | Masked | Recovered | Ingress_dropped | Barrier_timeout
  | Signature_mismatch ->
      true
  | Ycsb_corruption | Ycsb_error | User_mem_fault | User_other_fault
  | Kernel_exception | System_reboot ->
      false

let classify ~sys ~client_corrupt ~client_error =
  let cfg = System.config sys in
  let base = cfg.Config.mode = Config.Base in
  let had ev =
    List.exists (fun (_, k) -> k = ev) (System.events sys)
  in
  let had_user_fault =
    List.exists
      (fun (_, k) -> match k with System.E_user_fault _ -> true | _ -> false)
      (System.events sys)
  in
  let had_downgrade = System.downgrades sys <> [] in
  (* The kernel-side counter covers the CC (FT_Mem_Rep) path; the
     device's NACK count also covers LC, where the guest drops frames
     over MMIO without the scheduler ever seeing it. *)
  let had_ingress_drop =
    System.counter sys "net.ingress_dropped" > 0
    ||
    match System.netdev sys with
    | Some nd -> Rcoe_machine.Netdev.rx_nacked nd > 0
    | None -> false
  in
  match System.halted sys with
  | Some (System.H_kernel_exception _) -> Kernel_exception
  | Some System.H_timeout -> Barrier_timeout
  | Some System.H_mismatch | Some System.H_no_consensus
  | Some System.H_masking_blocked ->
      Signature_mismatch
  | None ->
      if had_downgrade then Masked
      else if base then begin
        (* Unreplicated: client and fault observations are the outcome. *)
        if client_corrupt then Ycsb_corruption
        else if had_user_fault then
          if
            List.exists
              (fun (_, k) ->
                match k with System.E_kernel_abort _ -> true | _ -> false)
              (System.events sys)
          then Kernel_exception
          else User_mem_fault
        else if client_error then Ycsb_error
        else if System.rollbacks sys <> [] then
          (* Replay detection: a checker verdict rewound the
             unreplicated primary to a chunk start — the run ended
             clean *because* it was rewound. *)
          Recovered
        else if had_ingress_drop then Ingress_dropped
        else No_error
      end
      else if client_corrupt then Ycsb_corruption
      else if client_error then Ycsb_error
      else if System.rollbacks sys <> [] then
        (* Rollback recovery logs E_mismatch at detection, so this must
           take precedence over the mismatch check below: the run ended
           clean *because* it was rewound. *)
        Recovered
      else if had System.E_mismatch then Signature_mismatch
      else if had_ingress_drop then
        (* Ingress verification caught the corruption before it entered
           the sphere of replication; the client's retransmission
           re-delivered the request and the run ended clean. *)
        Ingress_dropped
      else No_error

type tally = (t, int) Hashtbl.t

let tally_create () : tally = Hashtbl.create 16

let tally_add tly o =
  Hashtbl.replace tly o (1 + Option.value ~default:0 (Hashtbl.find_opt tly o))

let tally_get tly o = Option.value ~default:0 (Hashtbl.find_opt tly o)

let tally_total tly = Hashtbl.fold (fun _ n acc -> n + acc) tly 0

let tally_controlled tly =
  Hashtbl.fold (fun o n acc -> if controlled o then n + acc else acc) tly 0

let tally_uncontrolled tly = tally_total tly - tally_controlled tly
