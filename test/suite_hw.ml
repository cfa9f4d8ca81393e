(* Hardware model tests: access ranges, the order-based alias register
   queue (Sections 2.4/3 of the paper), Efficeon bit-mask, ALAT, and
   the Table 1 capability comparison. *)

open Helpers
module I = Ir.Instr

let access = Hw.Access.make

let test_access_overlap () =
  let a = access ~addr:100 ~width:4 in
  Alcotest.(check bool) "self overlap" true (Hw.Access.overlap a a);
  Alcotest.(check bool) "adjacent disjoint" false
    (Hw.Access.overlap a (access ~addr:104 ~width:4));
  Alcotest.(check bool) "one byte shared" true
    (Hw.Access.overlap a (access ~addr:103 ~width:4));
  Alcotest.(check bool) "contained" true
    (Hw.Access.overlap (access ~addr:100 ~width:8) (access ~addr:102 ~width:2));
  Alcotest.check_raises "zero width rejected"
    (Invalid_argument "Access.make: width must be positive") (fun () ->
      ignore (access ~addr:0 ~width:0))

(* Build a memory op with a queue annotation for direct HW tests. *)
let qop ?(load = true) ~id ~offset ~p ~c () =
  let op =
    if load then
      I.Load
        {
          dst = f 0;
          addr = { I.base = r 0; disp = 0 };
          width = 4;
          annot = Ir.Annot.queue ~offset ~p ~c;
        }
    else
      I.Store
        {
          src = I.Imm 0;
          addr = { I.base = r 0; disp = 0 };
          width = 4;
          annot = Ir.Annot.queue ~offset ~p ~c;
        }
  in
  I.make ~id op

let ok_or_fail = function
  | Ok () -> ()
  | Error v -> Alcotest.failf "unexpected %a" Hw.Detector.pp_violation v

let expect_violation ~setter ~checker = function
  | Ok () -> Alcotest.fail "expected a violation"
  | Error (v : Hw.Detector.violation) ->
    Alcotest.(check int) "setter" setter v.Hw.Detector.setter;
    Alcotest.(check int) "checker" checker v.Hw.Detector.checker

(* The Figure 2 scenario: a protected range checked by a later store at
   an equal-or-earlier register order is detected on overlap. *)
let test_queue_basic_detection () =
  let q = Hw.Queue.create ~size:8 in
  (* M1 (load, AR0, P) sets [0,3]; M2 (store, AR0, C) checks. *)
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  expect_violation ~setter:1 ~checker:2
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:2 ~width:4))

let test_queue_order_rule () =
  (* A checker at a LATER order must not see earlier registers: the
     ordered-detection rule's "not later" condition. *)
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  (* checker at offset 1 > setter's order 0: no check *)
  ok_or_fail
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:1 ~p:false ~c:true ())
       (access ~addr:0 ~width:4));
  (* checker at offset 0 does check *)
  expect_violation ~setter:1 ~checker:3
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:3 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_load_load_exemption () =
  (* Hardware marks registers set by loads; later loads skip them. *)
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~load:true ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4));
  (* but a store at the same range IS caught *)
  expect_violation ~setter:1 ~checker:3
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:3 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_pc_same_op () =
  (* P and C on the same operation: check happens before set, so the
     operation never detects itself. *)
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:1 ~offset:0 ~p:true ~c:true ())
       (access ~addr:0 ~width:4));
  (* a second PC store at the same offset checks the first *)
  expect_violation ~setter:1 ~checker:2
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:0 ~p:true ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_rotation () =
  (* Rotation frees the register sliding off the front (Figure 7). *)
  let q = Hw.Queue.create ~size:2 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  Hw.Queue.rotate q 1;
  Alcotest.(check int) "base advanced" 1 (Hw.Queue.base q);
  Alcotest.(check int) "entry freed" 0 (List.length (Hw.Queue.live_entries q));
  (* offset 0 now refers to order 1; a fresh set works in the freed slot *)
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:2 ~offset:0 ~p:true ~c:false ())
       (access ~addr:8 ~width:4));
  let entries = Hw.Queue.live_entries q in
  Alcotest.(check int) "one live entry" 1 (List.length entries);
  (match entries with
  | [ (order, _, setter) ] ->
    Alcotest.(check int) "order is base+offset" 1 order;
    Alcotest.(check int) "setter id" 2 setter
  | _ -> Alcotest.fail "unexpected entries")

let test_queue_rotation_preserves_later () =
  (* An entry set at offset 1 survives a rotation by 1 and is then
     addressable at offset 0. *)
  let q = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:7 ~offset:1 ~p:true ~c:false ())
       (access ~addr:16 ~width:4));
  Hw.Queue.rotate q 1;
  expect_violation ~setter:7 ~checker:8
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:8 ~offset:0 ~p:false ~c:true ())
       (access ~addr:16 ~width:4))

let test_queue_amov_move_and_clear () =
  let q = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:2 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  (* move 2 -> 0: original setter id travels with the range *)
  Hw.Queue.amov q ~src:2 ~dst:0;
  expect_violation ~setter:1 ~checker:9
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:9 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4));
  (* pure clear: amov src=dst removes the range *)
  let q2 = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q2 (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  Hw.Queue.amov q2 ~src:0 ~dst:0;
  ok_or_fail
    (Hw.Queue.on_mem q2
       (qop ~load:false ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:0 ~width:4))

let test_queue_overflow_guard () =
  let q = Hw.Queue.create ~size:2 in
  Alcotest.check_raises "offset beyond window"
    (Invalid_argument
       "Queue.on_mem: offset 2 outside alias register window of 2 (software \
        overflow bug)") (fun () ->
      ignore
        (Hw.Queue.on_mem q (qop ~id:1 ~offset:2 ~p:true ~c:false ())
           (access ~addr:0 ~width:4)))

let test_queue_reset () =
  let q = Hw.Queue.create ~size:4 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  Hw.Queue.rotate q 2;
  Hw.Queue.reset q;
  Alcotest.(check int) "base reset" 0 (Hw.Queue.base q);
  Alcotest.(check int) "entries cleared" 0
    (List.length (Hw.Queue.live_entries q))

let mop ~id ~annot ~store =
  let op =
    if store then
      I.Store { src = I.Imm 0; addr = { I.base = r 0; disp = 0 }; width = 4; annot }
    else
      I.Load { dst = f 0; addr = { I.base = r 0; disp = 0 }; width = 4; annot }
  in
  I.make ~id op

let test_efficeon_mask () =
  let e = Hw.Efficeon.create () in
  ok_or_fail
    (Hw.Efficeon.on_mem e
       (mop ~id:1 ~annot:(Ir.Annot.mask ~set_index:(Some 3) ~check_mask:0)
          ~store:false)
       (access ~addr:0 ~width:4));
  (* mask not covering register 3: no detection even on overlap *)
  ok_or_fail
    (Hw.Efficeon.on_mem e
       (mop ~id:2 ~annot:(Ir.Annot.mask ~set_index:None ~check_mask:0b0111)
          ~store:true)
       (access ~addr:0 ~width:4));
  (* mask covering register 3: detected *)
  expect_violation ~setter:1 ~checker:3
    (Hw.Efficeon.on_mem e
       (mop ~id:3 ~annot:(Ir.Annot.mask ~set_index:None ~check_mask:0b1000)
          ~store:true)
       (access ~addr:0 ~width:4))

let test_efficeon_store_store () =
  (* stores may be protected and checked: store-store detection works *)
  let e = Hw.Efficeon.create () in
  ok_or_fail
    (Hw.Efficeon.on_mem e
       (mop ~id:1 ~annot:(Ir.Annot.mask ~set_index:(Some 0) ~check_mask:0)
          ~store:true)
       (access ~addr:0 ~width:4));
  expect_violation ~setter:1 ~checker:2
    (Hw.Efficeon.on_mem e
       (mop ~id:2 ~annot:(Ir.Annot.mask ~set_index:None ~check_mask:1)
          ~store:true)
       (access ~addr:2 ~width:4))

let test_efficeon_encoding_limit () =
  Alcotest.check_raises "16 registers rejected"
    (Invalid_argument "Efficeon.create: size must be in 1..15") (fun () ->
      ignore (Hw.Efficeon.create ~size:16 ()))

let test_alat_false_positive () =
  (* every store snoops every entry: a benign overlap still fires *)
  let a = Hw.Alat.create () in
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:1 ~annot:(Ir.Annot.alat ~advanced:true) ~store:false)
       (access ~addr:0 ~width:4));
  (match
     Hw.Alat.on_mem a
       (mop ~id:2 ~annot:Ir.Annot.No_annot ~store:true)
       (access ~addr:0 ~width:4)
   with
  | Ok () -> Alcotest.fail "expected ALAT hit"
  | Error v ->
    Alcotest.(check bool) "flagged FP-prone" true
      v.Hw.Detector.false_positive_prone)

let test_alat_no_load_load () =
  let a = Hw.Alat.create () in
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:1 ~annot:(Ir.Annot.alat ~advanced:true) ~store:false)
       (access ~addr:0 ~width:4));
  (* a later load never checks the table *)
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:2 ~annot:(Ir.Annot.alat ~advanced:false) ~store:false)
       (access ~addr:0 ~width:4))

let test_alat_capacity_eviction () =
  let a = Hw.Alat.create ~size:2 () in
  List.iter
    (fun id ->
      ok_or_fail
        (Hw.Alat.on_mem a
           (mop ~id ~annot:(Ir.Annot.alat ~advanced:true) ~store:false)
           (access ~addr:(id * 100) ~width:4)))
    [ 1; 2; 3 ];
  Alcotest.(check int) "bounded" 2 (Hw.Alat.live_count a);
  (* entry 1 evicted: store to its range passes silently *)
  ok_or_fail
    (Hw.Alat.on_mem a
       (mop ~id:4 ~annot:Ir.Annot.No_annot ~store:true)
       (access ~addr:100 ~width:4));
  Alcotest.(check int) "both survivors compared" 2 (Hw.Alat.checks_performed a);
  (* the scan runs newest first: a store over entries 2 and 3 names 3
     after one comparison *)
  expect_violation ~setter:3 ~checker:5
    (Hw.Alat.on_mem a
       (mop ~id:5 ~annot:Ir.Annot.No_annot ~store:true)
       (access ~addr:200 ~width:104));
  Alcotest.(check int) "stopped at the newest" 3 (Hw.Alat.checks_performed a);
  Hw.Alat.reset a;
  Alcotest.(check int) "reset empties" 0 (Hw.Alat.live_count a)

(* Table 1 of the paper as a machine-checked fact. *)
let test_table1_capabilities () =
  let queue = (Hw.Queue.detector (Hw.Queue.create ~size:64)).Hw.Detector.caps in
  let eff = (Hw.Efficeon.detector (Hw.Efficeon.create ())).Hw.Detector.caps in
  let alat = (Hw.Alat.detector (Hw.Alat.create ())).Hw.Detector.caps in
  Alcotest.(check bool) "efficeon not scalable" false eff.Hw.Detector.scalable;
  Alcotest.(check bool) "efficeon precise" false eff.Hw.Detector.false_positives;
  Alcotest.(check bool) "efficeon st-st" true eff.Hw.Detector.detects_store_store;
  Alcotest.(check bool) "alat scalable" true alat.Hw.Detector.scalable;
  Alcotest.(check bool) "alat has FPs" true alat.Hw.Detector.false_positives;
  Alcotest.(check bool) "alat no st-st" false alat.Hw.Detector.detects_store_store;
  Alcotest.(check bool) "queue scalable" true queue.Hw.Detector.scalable;
  Alcotest.(check bool) "queue precise" false queue.Hw.Detector.false_positives;
  Alcotest.(check bool) "queue st-st" true queue.Hw.Detector.detects_store_store

let test_checks_counter () =
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:0 ~p:true ~c:false ())
       (access ~addr:0 ~width:4));
  ignore
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:2 ~offset:0 ~p:false ~c:true ())
       (access ~addr:1000 ~width:4));
  Alcotest.(check int) "one comparison" 1 (Hw.Queue.checks_performed q)

(* Two registers hold ranges the checker overlaps: the ring scans
   orders lowest first, so the violation names the lower-order setter
   and stops there. *)
let test_queue_lowest_order_setter () =
  let q = Hw.Queue.create ~size:8 in
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:1 ~offset:5 ~p:true ~c:false ())
       (access ~addr:0 ~width:8));
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:2 ~offset:2 ~p:true ~c:false ())
       (access ~addr:4 ~width:4));
  ok_or_fail
    (Hw.Queue.on_mem q (qop ~id:3 ~offset:3 ~p:true ~c:false ())
       (access ~addr:500 ~width:4));
  expect_violation ~setter:2 ~checker:4
    (Hw.Queue.on_mem q
       (qop ~load:false ~id:4 ~offset:1 ~p:false ~c:true ())
       (access ~addr:4 ~width:4));
  Alcotest.(check int) "one comparison, up to the first conflict" 1
    (Hw.Queue.checks_performed q)

(* Reference model of the ORDERED-ALIAS-DETECTION-RULE: live registers
   as an order-sorted association list.  A check compares every set
   register at-or-after the checker's order, lowest first (loads skip
   registers set by loads), and stops at the first overlap. *)
module Queue_model = struct
  type entry = {
    order : int;
    lo : int;
    hi : int;
    setter : int;
    by_load : bool;
  }

  type t = {
    mutable base : int;
    mutable live : entry list;  (* ascending order *)
    mutable checks : int;
  }

  let create () = { base = 0; live = []; checks = 0 }

  let reset t =
    t.base <- 0;
    t.live <- []

  let remove t order = t.live <- List.filter (fun e -> e.order <> order) t.live

  let set t e =
    remove t e.order;
    t.live <- List.sort (fun a b -> Int.compare a.order b.order) (e :: t.live)

  let rotate t n =
    t.base <- t.base + n;
    t.live <- List.filter (fun e -> e.order >= t.base) t.live

  let amov t ~src ~dst =
    match List.find_opt (fun e -> e.order = t.base + src) t.live with
    | None -> remove t (t.base + dst)
    | Some e ->
      remove t e.order;
      if src <> dst then set t { e with order = t.base + dst }

  let on_mem t ~id ~is_load ~offset ~p ~c ~lo ~hi =
    let order = t.base + offset in
    let rec scan = function
      | [] -> Ok ()
      | e :: rest ->
        if e.order < order || (is_load && e.by_load) then scan rest
        else begin
          t.checks <- t.checks + 1;
          if e.lo <= hi && lo <= e.hi then Error e.setter else scan rest
        end
    in
    match if c then scan t.live else Ok () with
    | Error _ as err -> err
    | Ok () ->
      if p then set t { order; lo; hi; setter = id; by_load = is_load };
      Ok ()
end

type queue_op =
  | Q_reset
  | Q_mem of bool * int * bool * bool * int * int  (* load, offset, p, c, addr, width *)
  | Q_rotate of int
  | Q_amov of int * int

let queue_size = 6

let queue_op_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Q_reset);
        ( 12,
          map
            (fun (load, offset, (p, c), (addr, width)) ->
              Q_mem (load, offset, p, c, addr, width))
            (quad bool (int_bound (queue_size - 1)) (pair bool bool)
               (pair (int_bound 40) (int_range 1 8))) );
        (3, map (fun n -> Q_rotate n) (int_bound 3));
        ( 2,
          map2
            (fun s d -> Q_amov (s, d))
            (int_bound (queue_size - 1))
            (int_bound (queue_size - 1)) );
      ])

let print_queue_op = function
  | Q_reset -> "reset"
  | Q_mem (load, o, p, c, a, w) ->
    Printf.sprintf "%s@%d%s%s[%d+%d]"
      (if load then "ld" else "st")
      o
      (if p then "P" else "")
      (if c then "C" else "")
      a w
  | Q_rotate n -> Printf.sprintf "rot %d" n
  | Q_amov (s, d) -> Printf.sprintf "amov %d->%d" s d

let prop_queue_matches_model ops =
  let q = Hw.Queue.create ~size:queue_size and m = Queue_model.create () in
  let same_live () =
    List.map
      (fun (o, (a : Hw.Access.t), s) -> (o, a.lo, a.hi, s))
      (Hw.Queue.live_entries q)
    = List.map
        (fun (e : Queue_model.entry) -> (e.order, e.lo, e.hi, e.setter))
        m.live
  in
  let next_id = ref 0 in
  List.for_all
    (fun op ->
      incr next_id;
      let verdicts_agree =
        match op with
        | Q_reset ->
          Hw.Queue.reset q;
          Queue_model.reset m;
          true
        | Q_rotate n ->
          Hw.Queue.rotate q n;
          Queue_model.rotate m n;
          true
        | Q_amov (src, dst) ->
          Hw.Queue.amov q ~src ~dst;
          Queue_model.amov m ~src ~dst;
          true
        | Q_mem (load, offset, p, c, addr, width) ->
          let id = !next_id in
          let got =
            Hw.Queue.on_mem q (qop ~load ~id ~offset ~p ~c ())
              (access ~addr ~width)
          in
          let want =
            Queue_model.on_mem m ~id ~is_load:load ~offset ~p ~c ~lo:addr
              ~hi:(addr + width - 1)
          in
          (match got, want with
          | Ok (), Ok () -> true
          | Error v, Error setter ->
            v.Hw.Detector.setter = setter && v.Hw.Detector.checker = id
          | Ok (), Error _ | Error _, Ok () -> false)
      in
      verdicts_agree
      && Hw.Queue.checks_performed q = m.checks
      && same_live ())
    ops

let queue_model_case =
  qcase ~count:500 "queue: ring matches the ordered-detection model"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_queue_op ops))
       QCheck.Gen.(list_size (int_range 1 60) queue_op_gen))
    prop_queue_matches_model

let suite =
  ( "hw",
    [
      case "access overlap" test_access_overlap;
      case "queue: basic detection (Fig 2)" test_queue_basic_detection;
      case "queue: ordered-detection rule" test_queue_order_rule;
      case "queue: load-load exemption" test_queue_load_load_exemption;
      case "queue: P+C checks before set" test_queue_pc_same_op;
      case "queue: rotation frees front" test_queue_rotation;
      case "queue: rotation preserves later entries"
        test_queue_rotation_preserves_later;
      case "queue: AMOV move and clear" test_queue_amov_move_and_clear;
      case "queue: window overflow is a software bug" test_queue_overflow_guard;
      case "queue: reset" test_queue_reset;
      case "efficeon: explicit mask checks" test_efficeon_mask;
      case "efficeon: store-store detection" test_efficeon_store_store;
      case "efficeon: encoding limit" test_efficeon_encoding_limit;
      case "alat: blanket snoop false positive" test_alat_false_positive;
      case "alat: loads never check" test_alat_no_load_load;
      case "alat: capacity eviction" test_alat_capacity_eviction;
      case "table 1 capabilities" test_table1_capabilities;
      case "energy proxy counter" test_checks_counter;
      case "queue: lowest-order setter reported"
        test_queue_lowest_order_setter;
      queue_model_case;
    ] )
