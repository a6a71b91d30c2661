(* The process-lifetime cache (lib/cache plus the Engine.Memo plumbing):
   exact-key store semantics, LRU and byte caps, the budget-monotonicity
   rule for scan outcomes (a budget trip is never cached; a decisive
   answer found under a small budget serves any larger request and never
   a smaller one), per-store caps restored after a re-cap, cache-on =
   cache-off on randomized workloads, jobs-1 = jobs-4
   byte identity with the caches live, and the server reply caches — L1
   raw requests served only at the registry epoch they were computed at,
   L2 resolved content shared across sessions — against randomized
   register/unregister/re-register interleavings. *)

module R = Relational
module J = Obs.Json
module Prop = Proplogic.Prop
module Nfa = Automata.Nfa
module Afa = Automata.Afa
module Regex = Automata.Regex
module G = Cache.Store.Gauges
open Sws

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_jobs n f =
  Par.Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Par.Pool.set_jobs None) f

(* ------------------------------------------------------------------ *)
(* Store semantics                                                      *)
(* ------------------------------------------------------------------ *)

module Int_store = Cache.Store.Make (struct
  type t = int

  let weight _ = 8
end)

module Str_store = Cache.Store.Make (struct
  type t = string

  let weight = String.length
end)

let test_key_of_parts () =
  let k = Cache.Store.Key.of_parts in
  let distinct a b = not (Cache.Store.Key.equal (k a) (k b)) in
  check "split point matters" true (distinct [ "ab"; "c" ] [ "a"; "bc" ]);
  check "arity matters" true (distinct [ "abc" ] [ "ab"; "c" ]);
  check "empty part is visible" true (distinct [ "a"; "" ] [ "a" ]);
  check "nul bytes are safe" true (distinct [ "a\x00"; "b" ] [ "a"; "\x00b" ]);
  check "digits don't bleed into the prefix" true (distinct [ "1"; "1" ] [ "11" ]);
  check "a part that looks like the encoding" true
    (distinct [ "1:1" ] [ "1"; "1" ]);
  check "equal parts, equal key" true
    (Cache.Store.Key.equal (k [ "x"; "y" ]) (k [ "x"; "y" ]))

let test_store_lru () =
  let s = Int_store.create ~max_entries:3 ~cls:"test_lru" () in
  let key i = Cache.Store.Key.of_parts [ "k"; string_of_int i ] in
  List.iter (fun i -> Int_store.add s (key i) i) [ 1; 2; 3 ];
  check_int "filled" 3 (Int_store.length s);
  (* touch 1, leaving 2 least recently used *)
  check "touch 1" true (Int_store.find s (key 1) = Some 1);
  Int_store.add s (key 4) 4;
  check "2 evicted" true (Int_store.find s (key 2) = None);
  check "1 survives (recently used)" true (Int_store.find s (key 1) = Some 1);
  check "4 resident" true (Int_store.find s (key 4) = Some 4);
  let g = Int_store.gauges s in
  check_int "one eviction" 1 g.G.evictions;
  check_int "entries level" 3 g.G.entries;
  Int_store.add s (key 4) 44;
  check "overwrite replaces" true (Int_store.find s (key 4) = Some 44);
  check_int "no growth on overwrite" 3 (Int_store.length s);
  Int_store.clear s;
  check_int "cleared" 0 (Int_store.length s);
  let g = Int_store.gauges s in
  check "counters survive clear" true (g.G.evictions >= 1 && g.G.hits >= 1)

let test_store_byte_cap () =
  let s = Str_store.create ~max_entries:100 ~max_bytes:64 ~cls:"test_bytes" () in
  let key i = Cache.Store.Key.of_parts [ "b"; string_of_int i ] in
  List.iter (fun i -> Str_store.add s (key i) (String.make 30 'x')) [ 1; 2; 3; 4 ];
  check "byte cap evicts" true (Str_store.length s < 4);
  let g = Str_store.gauges s in
  check "resident bytes within cap" true (g.G.bytes <= 64)

let test_registry_caps () =
  let s = Int_store.create ~max_entries:10 ~cls:"test_caps" () in
  let key i = Cache.Store.Key.of_parts [ "c"; string_of_int i ] in
  List.iter (fun i -> Int_store.add s (key i) i) (List.init 10 Fun.id);
  Engine.cache_set_caps ~max_entries:4 ();
  Fun.protect
    ~finally:Cache.Store.reset_caps
    (fun () ->
      check "re-cap evicts immediately" true (Int_store.length s <= 4);
      check "class registered" true
        (List.mem "test_caps" (Cache.Store.classes ())))

(* [reset_caps] gives each store the caps it was created with, not one
   registry-wide value: after a test re-caps everything, later tests run
   with the caps of a fresh process. *)
let test_reset_caps () =
  let small = Int_store.create ~max_entries:3 ~cls:"test_reset" () in
  let large = Int_store.create ~max_entries:6 ~cls:"test_reset" () in
  let bytes = Str_store.create ~max_entries:100 ~max_bytes:400 ~cls:"test_reset" () in
  Engine.cache_set_caps ~max_entries:1 ~max_bytes:1 ();
  Cache.Store.reset_caps ();
  let key i = Cache.Store.Key.of_parts [ "r"; string_of_int i ] in
  for i = 0 to 7 do
    Int_store.add small (key i) i;
    Int_store.add large (key i) i;
    Str_store.add bytes (key i) (String.make 20 'x')
  done;
  check_int "the small store holds its own 3" 3 (Int_store.length small);
  check_int "the large store holds its own 6" 6 (Int_store.length large);
  check "the byte cap is back" true
    (let g = Str_store.gauges bytes in
     g.G.entries >= 3 && g.G.bytes <= 400)

let test_store_domain_stress () =
  (* eight domains race adds and finds on one store; a lookup may miss
     (evicted by a neighbour) but must never return another key's value *)
  let s = Int_store.create ~max_entries:256 ~cls:"test_stress" () in
  let key i = Cache.Store.Key.of_parts [ "s"; string_of_int i ] in
  let domains =
    List.init 8 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 0 to 499 do
              let k = (i + (d * 37)) mod 200 in
              Int_store.add s (key k) k;
              (match Int_store.find s (key k) with
              | Some v -> if v <> k then ok := false
              | None -> ());
              let k' = (k + 7) mod 200 in
              match Int_store.find s (key k') with
              | Some v -> if v <> k' then ok := false
              | None -> ()
            done;
            !ok))
  in
  check "every domain saw consistent values" true
    (List.for_all Fun.id (List.map Domain.join domains));
  check "caps hold after the stampede" true (Int_store.length s <= 256)

(* ------------------------------------------------------------------ *)
(* Budget monotonicity at the decision layer                            *)
(* ------------------------------------------------------------------ *)

let tv = R.Term.var
let cqm ?neqs head body = R.Cq.make ?neqs ~head ~body ()

let copy2 =
  Sws_data.Q_ucq
    (R.Ucq.make
       [
         cqm [ tv "x"; tv "y" ] [ R.Atom.make "act1" [ tv "x"; tv "y" ] ];
         cqm [ tv "x"; tv "y" ] [ R.Atom.make "act2" [ tv "x"; tv "y" ] ];
       ])

let phi = Sws_data.Q_cq (cqm [ tv "x" ] [ R.Atom.make "in" [ tv "x" ] ])

(* Recursive services, so the scan is a semi-procedure: one with a
   reachable witness, one whose leaf is unsatisfiable (the scan can only
   exhaust).  Distinct relation names keep their content keys clear of
   every other suite in this binary. *)
let rec_witness_service =
  let psi =
    Sws_data.Q_cq
      (cqm
         [ tv "x"; tv "y" ]
         [ R.Atom.make "msg" [ tv "x" ]; R.Atom.make "cachr" [ tv "x"; tv "y" ] ])
  in
  Sws_data.make
    ~db_schema:(R.Schema.of_list [ ("cachr", 2) ])
    ~in_arity:1 ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qs", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qa", { Sws_def.succs = []; synth = psi });
      ]

let rec_empty_service =
  let psi =
    Sws_data.Q_cq
      (cqm
         ~neqs:[ (tv "x", tv "x") ]
         [ tv "x"; tv "x" ]
         [ R.Atom.make "msg" [ tv "x" ] ])
  in
  Sws_data.make
    ~db_schema:(R.Schema.of_list [ ("cache", 2) ])
    ~in_arity:1 ~out_arity:2 ~start:"q0"
    ~rules:
      [
        ("q0", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qs", { Sws_def.succs = [ ("qs", phi); ("qa", phi) ]; synth = copy2 });
        ("qa", { Sws_def.succs = []; synth = psi });
      ]

let decision_delta ~before =
  Option.value ~default:G.zero
    (List.assoc_opt "decision"
       (Engine.cache_snapshot_delta ~before (Engine.cache_snapshot ())))

let test_exhausted_never_cached () =
  Engine.cache_clear_all ();
  let b = Engine.Budget.of_depth 2 in
  (match Decision.cq_non_emptiness ~budget:b rec_empty_service with
  | Decision.Exhausted _ -> ()
  | _ -> Alcotest.fail "expected Exhausted");
  let before = Engine.cache_snapshot () in
  (match Decision.cq_non_emptiness ~budget:b rec_empty_service with
  | Decision.Exhausted _ -> ()
  | _ -> Alcotest.fail "expected Exhausted again");
  let d = decision_delta ~before in
  check_int "a budget trip is recomputed, never served" 0 d.G.hits;
  check "the trip is probed and recomputed" true (d.G.misses >= 1)

let test_budget_monotonic_serve () =
  Engine.cache_clear_all ();
  (match
     Decision.cq_non_emptiness
       ~budget:(Engine.Budget.of_depth 4)
       rec_witness_service
   with
  | Decision.Yes _ -> ()
  | _ -> Alcotest.fail "expected a witness under depth 4");
  (* a decisive answer found under depth 4 serves any request >= 4 ... *)
  let before = Engine.cache_snapshot () in
  (match
     Decision.cq_non_emptiness
       ~budget:(Engine.Budget.of_depth 10)
       rec_witness_service
   with
  | Decision.Yes _ -> ()
  | _ -> Alcotest.fail "expected the cached witness");
  let d = decision_delta ~before in
  check_int "larger budget served from cache" 1 d.G.hits;
  (* ... and never a smaller one: the cached answer may have needed the
     depths the small request excludes *)
  let before = Engine.cache_snapshot () in
  ignore
    (Decision.cq_non_emptiness
       ~budget:(Engine.Budget.of_depth 2)
       rec_witness_service);
  let d = decision_delta ~before in
  check_int "smaller budget recomputes" 0 d.G.hits

(* The metered pair search behind pl_equivalence obeys the same contract
   as the scan procedures: a search stopped by the node budget answers
   Equiv_exhausted and is never cached, and a decisive answer computed
   without a budget is never served to a budgeted request that excludes
   the exploration it needed. *)
let test_lang_trip_never_cached () =
  Engine.cache_clear_all ();
  let mk s = Roman.to_sws_pl (Nfa.of_regex ~alphabet_size:2 (Regex.parse s)) in
  let s1 = mk "(ab)*" and s2 = mk "(ab)*ab|1" in
  let tiny = Engine.Budget.of_nodes 1 in
  (match Decision.pl_equivalence ~budget:tiny s1 s2 with
  | Decision.Equiv_exhausted _ -> ()
  | _ -> Alcotest.fail "expected Equiv_exhausted under a 1-node budget");
  let before = Engine.cache_snapshot () in
  (match Decision.pl_equivalence ~budget:tiny s1 s2 with
  | Decision.Equiv_exhausted _ -> ()
  | _ -> Alcotest.fail "expected Equiv_exhausted again");
  let d = decision_delta ~before in
  check_int "a tripped exploration is never served" 0 d.G.hits;
  check "the trip is probed and recomputed" true (d.G.misses >= 1);
  (* the two regexes denote the same language, so the unmetered run
     decides — and that answer must not leak back to a tiny budget *)
  (match Decision.pl_equivalence s1 s2 with
  | Decision.Equivalent -> ()
  | _ -> Alcotest.fail "expected Equivalent without a budget");
  let before = Engine.cache_snapshot () in
  (match Decision.pl_equivalence ~budget:tiny s1 s2 with
  | Decision.Equiv_exhausted _ -> ()
  | _ -> Alcotest.fail "expected the budgeted request to recompute and trip");
  let d = decision_delta ~before in
  check_int "decisive unlimited answer not served to a tiny budget" 0
    d.G.hits

let test_content_sharing () =
  (* two services built independently from the same regex text share one
     content key: the second computation is a pure cache hit *)
  Engine.cache_clear_all ();
  let mk () =
    Reductions.sws_of_afa
      (Afa.of_nfa (Nfa.of_regex ~alphabet_size:2 (Regex.parse "(ab)*a")))
  in
  let s1 = mk () and s2 = mk () in
  let r1 = Decision.pl_non_emptiness s1 in
  let before = Engine.cache_snapshot () in
  let r2 = Decision.pl_non_emptiness s2 in
  let d = decision_delta ~before in
  check "content-equal service is a hit" true (d.G.hits >= 1);
  check "and the served answer matches" true (r1 = r2)

(* ------------------------------------------------------------------ *)
(* Cache-on = cache-off, and jobs-1 = jobs-4, on random workloads        *)
(* ------------------------------------------------------------------ *)

let gen_formula =
  QCheck.Gen.(list_size (1 -- 10) (list_size (1 -- 3) (pair (0 -- 5) bool)))

let formula_of clauses =
  Prop.conj
    (List.map
       (fun lits ->
         Prop.disj
           (List.map
              (fun (i, sign) ->
                let v = Prop.var (Printf.sprintf "x%d" i) in
                if sign then v else Prop.Not v)
              lits))
       clauses)

let prop_cache_transparent =
  QCheck.Test.make ~count:60
    ~name:"cache on = cache off (SAT-backed decision procedures)"
    (QCheck.make gen_formula)
    (fun clauses ->
      let sws = Reductions.sws_of_sat (formula_of clauses) in
      let run () =
        ( Decision.pl_nr_non_emptiness sws,
          Decision.pl_nr_validation sws ~output:false,
          Decision.pl_nr_equivalence sws sws )
      in
      Engine.cache_clear_all ();
      let cold = run () in
      let warm = run () in
      Engine.set_caching false;
      let off =
        Fun.protect ~finally:(fun () -> Engine.set_caching true) run
      in
      cold = warm && cold = off)

(* Random NFAs, same recipe as T_par: raw data clamped by the state
   count. *)
let gen_raw_nfa =
  QCheck.Gen.(
    quad (2 -- 7)
      (list_size (0 -- 30) (triple (0 -- 100) (0 -- 1) (0 -- 100)))
      (list_size (0 -- 5) (pair (0 -- 100) (0 -- 100)))
      (list_size (1 -- 3) (0 -- 100)))

let build_nfa (n, raw_edges, raw_eps, raw_finals) =
  let clamp q = q mod n in
  Nfa.create ~num_states:n ~alphabet_size:2 ~starts:[ 0 ]
    ~finals:(List.map clamp raw_finals)
    ~edges:(List.map (fun (q, a, q') -> (clamp q, a, clamp q')) raw_edges)
    ~eps_edges:(List.map (fun (q, q') -> (clamp q, clamp q')) raw_eps)

let prop_jobs_byte_identical =
  QCheck.Test.make ~count:40
    ~name:"cached pipeline: jobs 4 = jobs 1 byte for byte, cold and warm"
    (QCheck.make gen_raw_nfa)
    (fun raw ->
      let sws = Reductions.sws_of_afa (Afa.of_nfa (build_nfa raw)) in
      let digest () =
        Marshal.to_string
          ( Decision.pl_non_emptiness sws,
            Decision.pl_validation sws ~output:false,
            Decision.pl_equivalence sws sws )
          [ Marshal.No_sharing ]
      in
      let d1 =
        with_jobs 1 (fun () ->
            Engine.cache_clear_all ();
            digest ())
      in
      let d4_cold =
        with_jobs 4 (fun () ->
            Engine.cache_clear_all ();
            digest ())
      in
      let d4_warm = with_jobs 4 digest in
      String.equal d1 d4_cold && String.equal d1 d4_warm)

(* ------------------------------------------------------------------ *)
(* The server reply caches                                              *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let with_server ?(configure = fun c -> c) f =
  incr sock_counter;
  let path =
    Printf.sprintf "/tmp/swsd-cache-test-%d-%d.sock" (Unix.getpid ())
      !sock_counter
  in
  let cfg =
    configure (Server.Daemon.default_config (Server.Protocol.Unix_sock path))
  in
  let daemon = Server.Daemon.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop daemon)
    (fun () -> f (Server.Daemon.bound_addr daemon))

let with_client addr f =
  let c = Server.Client.connect addr in
  Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)

let response_exn = function
  | Ok j -> j
  | Error e -> Alcotest.failf "transport error: %s" e

let status j =
  match J.member "status" j with Some (J.String s) -> s | _ -> "?"

let meta_source r =
  match
    Option.bind (J.member "meta" r) (fun m ->
        Option.bind (J.member "cache" m) (J.member "source"))
  with
  | Some (J.String s) -> s
  | _ -> "absent"

(* The per-request envelope fields; what must (or must not) repeat is the
   payload. *)
let strip = function
  | J.Obj kvs ->
    J.Obj
      (List.filter
         (fun (k, _) -> k <> "trace_id" && k <> "id" && k <> "meta")
         kvs)
  | j -> j

let test_reply_cache_sources () =
  with_server (fun addr ->
      Engine.cache_clear_all ();
      let params = [ ("service", J.String "(ba)+cq") ] in
      let call c = response_exn (Server.Client.call ~want_meta:true c ~meth:"check" ~params) in
      let r1, r2 =
        with_client addr (fun c ->
            let r1 = call c in
            (r1, call c))
      in
      check_string "first is a miss" "miss" (meta_source r1);
      check_string "repeat hits L1" "l1" (meta_source r2);
      check "identical payloads" true
        (J.to_string (strip r1) = J.to_string (strip r2));
      (* a fresh session's L1 key differs (it carries the sid), but the
         content-resolved L2 key is shared *)
      let r3 = with_client addr call in
      check_string "cross-session hit is L2" "l2" (meta_source r3);
      check "cross-session payload identical" true
        (J.to_string (strip r1) = J.to_string (strip r3)))

let test_epoch_invalidation () =
  with_server (fun addr ->
      Engine.cache_clear_all ();
      with_client addr (fun c ->
          let reg spec =
            response_exn
              (Server.Client.call c ~meth:"register"
                 ~params:[ ("name", J.String "v"); ("spec", J.String spec) ])
          in
          let compose () =
            response_exn
              (Server.Client.call ~want_meta:true c ~meth:"compose"
                 ~params:
                   [ ("goal", J.String "(ab)*");
                     ( "components",
                       J.List
                         [ J.Obj [ ("ref", J.String "v") ]; J.String "ba" ] );
                   ])
          in
          check_string "registered" "ok" (status (reg "ab"));
          let r1 = compose () in
          let r2 = compose () in
          check_string "repeat serves L1" "l1" (meta_source r2);
          (* the stamp: re-registering [v] advances the session epoch, so
             the cached reply is stale and the recomputation must see the
             new spec *)
          check_string "re-registered" "ok" (status (reg "aba"));
          let r3 = compose () in
          check "epoch bump bypasses L1" true (meta_source r3 <> "l1");
          check "payload reflects the new registry" true
            (J.to_string (strip r3) <> J.to_string (strip r1));
          let r3b = compose () in
          check_string "re-warmed under the new epoch" "l1" (meta_source r3b);
          (* unregister advances the stamp too *)
          let u =
            response_exn
              (Server.Client.call c ~meth:"unregister"
                 ~params:[ ("name", J.String "v") ])
          in
          check_string "unregistered" "ok" (status u);
          let r4 = compose () in
          check "unregister invalidates as well" true (meta_source r4 <> "l1");
          check_string "the reference now dangles" "error" (status r4));
      (* a stale reply is a miss that the recompute overwrites: across
         re-registers, the request keeps one L1 entry *)
      Engine.cache_clear_all ();
      with_client addr (fun c ->
          let reg () =
            response_exn
              (Server.Client.call c ~meth:"register"
                 ~params:[ ("name", J.String "w"); ("spec", J.String "a(b|a)") ])
          in
          let l1 () =
            Option.value ~default:G.zero
              (List.assoc_opt "server_l1" (Engine.cache_snapshot ()))
          in
          let read () =
            let before = l1 () in
            let r =
              response_exn
                (Server.Client.call c ~meth:"check"
                   ~params:[ ("service", J.Obj [ ("ref", J.String "w") ]) ])
            in
            check_string "check ok" "ok" (status r);
            G.delta ~before (l1 ())
          in
          for k = 1 to 4 do
            check_string "re-registered" "ok" (status (reg ()));
            let after_bump = read () in
            check_int (Printf.sprintf "bump %d: one L1 miss" k) 1
              after_bump.G.misses;
            check_int (Printf.sprintf "bump %d: no L1 hit" k) 0
              after_bump.G.hits;
            check_int (Printf.sprintf "bump %d: one L1 entry" k) 1
              after_bump.G.entries;
            let again = read () in
            check_int (Printf.sprintf "bump %d: the repeat hits L1" k) 1
              again.G.hits;
            check_int (Printf.sprintf "bump %d: still one L1 entry" k) 1
              again.G.entries
          done))

let test_cache_method () =
  with_server (fun addr ->
      with_client addr (fun c ->
          let r = response_exn (Server.Client.call c ~meth:"cache" ~params:[]) in
          check_string "stats ok" "ok" (status r);
          (match J.member "result" r with
          | Some res ->
            check "enabled flag" true
              (J.member "enabled" res = Some (J.Bool true));
            check "per-class gauges present" true
              (match J.member "classes" res with
              | Some (J.Obj l) -> List.mem_assoc "decision" l
              | _ -> false)
          | None -> Alcotest.fail "cache stats carry no result");
          let params = [ ("service", J.String "(qa)+b") ] in
          let call () =
            response_exn
              (Server.Client.call ~want_meta:true c ~meth:"check" ~params)
          in
          ignore (call ());
          check_string "warmed" "l1" (meta_source (call ()));
          let cl =
            response_exn
              (Server.Client.call c ~meth:"cache"
                 ~params:[ ("op", J.String "clear") ])
          in
          check "clear acknowledged" true
            (match J.member "result" cl with
            | Some res -> J.member "cleared" res = Some (J.Bool true)
            | None -> false);
          check_string "post-clear misses again" "miss" (meta_source (call ()))))

let test_cache_cap_config () =
  with_server
    ~configure:(fun c -> { c with Server.Daemon.cache_cap = Some 2 })
    (fun addr ->
      Fun.protect
        ~finally:Cache.Store.reset_caps
        (fun () ->
          with_client addr (fun c ->
              List.iter
                (fun spec ->
                  ignore
                    (response_exn
                       (Server.Client.call c ~meth:"check"
                          ~params:[ ("service", J.String spec) ])))
                [ "aa"; "bb"; "cc"; "dd"; "aa"; "bb" ];
              let g =
                Option.value ~default:G.zero
                  (List.assoc_opt "server_l1" (Engine.cache_snapshot ()))
              in
              check "reply cache capped at 2 entries" true (g.G.entries <= 2))))

(* Randomized interleavings: the same operation sequence replayed on a
   caching daemon (twice — second session exercises L2 reuse) and with
   caching globally off must produce byte-identical payload streams.
   Register / unregister / re-register land between queries, so any L1
   entry that survived a stamp advance would show up as a stale byte
   difference here. *)
type op = Reg of string * string | Unreg of string | Compose | Check of string

let gen_ops =
  QCheck.Gen.(
    list_size (1 -- 14)
      (oneof
         [
           map2
             (fun n s -> Reg (n, s))
             (oneofl [ "a"; "b" ])
             (oneofl [ "ab"; "ba"; "a(a|b)" ]);
           map (fun n -> Unreg n) (oneofl [ "a"; "b" ]);
           return Compose;
           map (fun n -> Check n) (oneofl [ "a"; "b" ]);
         ]))

let apply c op =
  let call meth params = response_exn (Server.Client.call c ~meth ~params) in
  match op with
  | Reg (n, s) ->
    call "register" [ ("name", J.String n); ("spec", J.String s) ]
  | Unreg n -> call "unregister" [ ("name", J.String n) ]
  | Compose ->
    call "compose"
      [ ("goal", J.String "(ab)*");
        ( "components",
          J.List
            [ J.Obj [ ("ref", J.String "a") ]; J.Obj [ ("ref", J.String "b") ] ]
        );
      ]
  | Check n -> call "check" [ ("service", J.Obj [ ("ref", J.String n) ]) ]

let prop_interleavings =
  QCheck.Test.make ~count:12
    ~name:"reply caches: random register/unregister interleavings = cache off"
    (QCheck.make gen_ops)
    (fun ops ->
      with_server (fun addr ->
          let replay () =
            with_client addr (fun c ->
                List.map (fun op -> J.to_string (strip (apply c op))) ops)
          in
          Engine.cache_clear_all ();
          let cached = replay () in
          let cached_again = replay () in
          Engine.set_caching false;
          let off =
            Fun.protect ~finally:(fun () -> Engine.set_caching true) replay
          in
          cached = off && cached_again = off))

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "Key.of_parts is injective" `Quick test_key_of_parts;
    Alcotest.test_case "LRU order, caps and gauges" `Quick test_store_lru;
    Alcotest.test_case "byte cap evicts" `Quick test_store_byte_cap;
    Alcotest.test_case "registry-wide re-capping" `Quick test_registry_caps;
    Alcotest.test_case "reset_caps restores each store's own caps" `Quick
      test_reset_caps;
    Alcotest.test_case "8-domain store stress" `Quick test_store_domain_stress;
    Alcotest.test_case "a budget trip is never cached" `Quick
      test_exhausted_never_cached;
    Alcotest.test_case "budget-monotone serving" `Quick
      test_budget_monotonic_serve;
    Alcotest.test_case "lang budget trip never cached" `Quick
      test_lang_trip_never_cached;
    Alcotest.test_case "content-equal services share entries" `Quick
      test_content_sharing;
    QCheck_alcotest.to_alcotest prop_cache_transparent;
    QCheck_alcotest.to_alcotest prop_jobs_byte_identical;
    Alcotest.test_case "reply cache sources: miss, L1, cross-session L2"
      `Quick test_reply_cache_sources;
    Alcotest.test_case "register/unregister epoch invalidation" `Quick
      test_epoch_invalidation;
    Alcotest.test_case "the cache server method" `Quick test_cache_method;
    Alcotest.test_case "cache_cap config re-caps the stores" `Quick
      test_cache_cap_config;
    QCheck_alcotest.to_alcotest prop_interleavings;
  ]
