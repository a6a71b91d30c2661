(* The snapshot layer (lib/snapshot): wire codec round-trips, whole-file
   save/load round-trips for every section, rejection of truncated /
   corrupted / version-skewed files without crashing, id stability of
   the interner across a reload, the byte-cap contract on cache
   restore, and — end to end — that a workload re-run over reloaded
   caches answers byte-identically to the fresh run that filled them,
   with the budget-monotonicity rule intact. *)

module R = Relational
module G = Cache.Store.Gauges
module W = Snapshot.Wire.W
module Rd = Snapshot.Wire.R
open Sws

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_jobs n f =
  Par.Pool.set_jobs (Some n);
  Fun.protect ~finally:(fun () -> Par.Pool.set_jobs None) f

let with_temp f =
  let path = Filename.temp_file "sws-snap-test" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let save_ok ?relations ?components ?caches path =
  match Snapshot.save ?relations ?components ?caches ~path () with
  | Ok info -> info
  | Error m -> Alcotest.failf "snapshot save: %s" m

let load_ok path =
  match Snapshot.load ~path with
  | Ok r -> r
  | Error m -> Alcotest.failf "snapshot load: %s" m

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

type wire_item = I of int | S of string | A of int array

let gen_item =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> I i) (oneof [ small_signed_int; int ]);
        map (fun s -> S s) (string_size ~gen:(char_range '\x00' '\xff') (0 -- 40));
        map (fun l -> A (Array.of_list l)) (list_size (0 -- 20) int);
      ])

let prop_wire_roundtrip =
  QCheck.Test.make ~count:300 ~name:"wire items round-trip in order"
    (QCheck.make QCheck.Gen.(list_size (0 -- 30) gen_item))
    (fun items ->
      let w = W.create () in
      List.iter
        (function
          | I i -> W.i64 w i
          | S s -> W.str w s
          | A a -> W.int_array w a)
        items;
      let r = Rd.of_string (W.contents w) in
      let back =
        List.map
          (function
            | I _ -> I (Rd.i64 r)
            | S _ -> S (Rd.str r)
            | A _ -> A (Rd.int_array r))
          items
      in
      Rd.expect_end r;
      back = items)

let test_wire_reader_bounds () =
  (* a reader over short input raises Corrupt, never Invalid_argument or
     an out-of-bounds read *)
  let w = W.create () in
  W.str w "hello";
  let s = W.contents w in
  List.iter
    (fun len ->
      let r = Rd.of_string ~len (String.sub s 0 len) in
      match Rd.str r with
      | _ -> Alcotest.failf "truncation to %d bytes decoded" len
      | exception Snapshot.Corrupt _ -> ())
    [ 0; 1; 3; String.length s - 1 ];
  (* a declared length far past the buffer must not allocate *)
  let w = W.create () in
  W.u32 w 0xFFFFFF;
  let r = Rd.of_string (W.contents w) in
  (match Rd.str r with
  | _ -> Alcotest.fail "oversized declared length decoded"
  | exception Snapshot.Corrupt _ -> ())

(* ------------------------------------------------------------------ *)
(* Interner id stability                                               *)
(* ------------------------------------------------------------------ *)

let test_id_stability () =
  let vs =
    [
      R.Value.str "snap-id-a"; R.Value.int 424242; R.Value.str "snap-id-b";
    ]
  in
  let ids_before = List.map R.Value.id vs in
  let size_before = R.Value.interner_size () in
  with_temp (fun path ->
      ignore (save_ok path);
      let _, c = load_ok path in
      check "load re-verifies the whole table" true (c.Snapshot.c_symtab >= 3);
      check_int "interner size unchanged (no drift, no duplicates)"
        size_before (R.Value.interner_size ());
      List.iter2
        (fun v id -> check_int "id stable across reload" id (R.Value.id v))
        vs ids_before)

(* ------------------------------------------------------------------ *)
(* Relation sections                                                   *)
(* ------------------------------------------------------------------ *)

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map R.Value.int (0 -- 9);
        map R.Value.str (oneofl [ "sa"; "sb"; "sc"; "sd"; "se" ]);
      ])

let gen_relation =
  QCheck.Gen.(
    1 -- 3 >>= fun arity ->
    list_size (0 -- 25) (map R.Tuple.of_list (list_repeat arity gen_value))
    >>= fun tuples -> return (R.Relation.of_list arity tuples))

let prop_packed_roundtrip =
  QCheck.Test.make ~count:200 ~name:"dump/of_packed is the identity"
    (QCheck.make gen_relation)
    (fun rel ->
      let packed = R.Relation.dump rel in
      let back =
        R.Relation.of_packed ~arity:(R.Relation.arity rel)
          ~n:(R.Relation.cardinal rel) packed
      in
      R.Relation.equal rel back)

let prop_relation_file_roundtrip =
  QCheck.Test.make ~count:100 ~name:"relations round-trip through the file"
    (QCheck.make QCheck.Gen.(list_size (1 -- 4) gen_relation))
    (fun rels ->
      let named = List.mapi (fun i r -> (Printf.sprintf "q%d" i, r)) rels in
      with_temp (fun path ->
          ignore (save_ok ~relations:named ~caches:false path);
          let _, c = load_ok path in
          List.for_all
            (fun (name, r) ->
              match List.assoc_opt name c.Snapshot.c_relations with
              | Some r' -> R.Relation.equal r r'
              | None -> false)
            named))

let test_components_roundtrip () =
  with_temp (fun path ->
      let comps = [ ("v1", "ab"); ("v2", "(ab)*|ba") ] in
      ignore (save_ok ~components:comps ~caches:false path);
      let _, c = load_ok path in
      match c.Snapshot.c_components with
      | Some got -> check "components round-trip in order" true (got = comps)
      | None -> Alcotest.fail "COMP section missing after load")

(* ------------------------------------------------------------------ *)
(* Rejection: truncated, corrupted, version-skewed                     *)
(* ------------------------------------------------------------------ *)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let valid_snapshot_bytes () =
  with_temp (fun path ->
      let rel =
        R.Relation.of_list 2
          [
            R.Tuple.of_list [ R.Value.int 1; R.Value.str "sa" ];
            R.Tuple.of_list [ R.Value.int 2; R.Value.str "sb" ];
          ]
      in
      ignore (save_ok ~relations:[ ("r", rel) ] ~components:[ ("v", "ab") ] path);
      read_file path)

let expect_load_error what path =
  match Snapshot.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s loaded successfully" what

let test_reject_truncated () =
  let bytes = valid_snapshot_bytes () in
  let n = String.length bytes in
  List.iter
    (fun len ->
      with_temp (fun path ->
          write_file path (String.sub bytes 0 len);
          expect_load_error (Printf.sprintf "truncation to %d/%d bytes" len n)
            path))
    [ 0; 4; 8; 11; 16; n / 2; n - 1 ]

let test_reject_bad_digest () =
  let bytes = valid_snapshot_bytes () in
  let n = String.length bytes in
  (* flip one byte in the middle of the section region (past the 16-byte
     header): whatever section it lands in fails its digest *)
  let b = Bytes.of_string bytes in
  let pos = 16 + ((n - 16) / 2) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
  with_temp (fun path ->
      write_file path (Bytes.to_string b);
      expect_load_error "a snapshot with a flipped payload byte" path)

let test_reject_wrong_version () =
  let bytes = valid_snapshot_bytes () in
  let b = Bytes.of_string bytes in
  (* the format version is the u32 right after the 8-byte magic *)
  Bytes.set b 8 (Char.chr 0xEF);
  with_temp (fun path ->
      write_file path (Bytes.to_string b);
      expect_load_error "a version-skewed snapshot" path)

let test_reject_bad_magic () =
  let bytes = valid_snapshot_bytes () in
  let b = Bytes.of_string bytes in
  Bytes.set b 0 'X';
  with_temp (fun path ->
      write_file path (Bytes.to_string b);
      expect_load_error "a snapshot with a foreign magic" path)

(* ------------------------------------------------------------------ *)
(* Byte-cap accounting on restore                                      *)
(* ------------------------------------------------------------------ *)

module Str_store = Cache.Store.Make (struct
  type t = string

  let weight = String.length
end)

let test_restore_respects_byte_cap () =
  (* a big source store dumped into a small-cap target must evict from
     the LRU end instead of growing without bound — the restore path
     replays entries through [add], so the approximate-bytes accounting
     applies exactly as it does to live inserts *)
  let codec t tag =
    Str_store.set_codec t ~tag ~encode:(fun s -> Some s)
      ~decode:(fun s -> Some s)
  in
  let src = Str_store.create ~max_entries:1024 ~cls:"test_snapcap" () in
  codec src "test/snapcap_src";
  let payload i = String.make 1000 (Char.chr (Char.code 'a' + (i mod 26))) in
  for i = 0 to 63 do
    Str_store.add src (Cache.Store.Key.of_parts [ "k"; string_of_int i ])
      (payload i)
  done;
  let dump =
    match Str_store.dump src with
    | Some d -> d
    | None -> Alcotest.fail "source store has a codec but dumped None"
  in
  check_int "all entries dumped" 64 (List.length dump.Cache.Store.d_entries);
  (* target cap: ~8 entries' worth of bytes *)
  let cap = 8 * 1100 in
  let tgt =
    Str_store.create ~max_entries:1024 ~max_bytes:cap ~cls:"test_snapcap_t" ()
  in
  codec tgt "test/snapcap_tgt";
  let restored = Str_store.restore tgt dump in
  check_int "every dumped entry was replayed" 64 restored;
  let g = Str_store.gauges tgt in
  check "resident bytes within the cap" true (g.G.bytes <= cap);
  check "restore evicted instead of growing" true (g.G.evictions > 0);
  check "the store kept a bounded residue" true
    (Str_store.length tgt > 0 && Str_store.length tgt < 64);
  (* the MRU end survives: the dump is LRU-first, so the highest keys
     (most recently used in the source) must be the ones resident *)
  check "the MRU-most entry survived" true
    (Str_store.find tgt (Cache.Store.Key.of_parts [ "k"; "63" ]) <> None)

(* ------------------------------------------------------------------ *)
(* Reload-then-answer identity                                         *)
(* ------------------------------------------------------------------ *)

let mk_service s =
  Roman.to_sws_pl
    (Automata.Nfa.of_regex ~alphabet_size:2 (Automata.Regex.parse s))

let outcome_repr = function
  | Decision.Yes w -> Printf.sprintf "yes:%d" (List.length w)
  | Decision.No -> "no"
  | Decision.Exhausted e -> Fmt.str "exhausted:%a" Engine.pp_exhausted e

let decision_workload () =
  List.concat_map
    (fun s ->
      let sws = mk_service s in
      [
        outcome_repr (Decision.pl_non_emptiness sws);
        outcome_repr (Decision.pl_validation sws ~output:false);
      ])
    [ "(ab)*"; "ab|ba"; "a(a|b)*b"; "0" ]

let class_delta cls ~before =
  Option.value ~default:G.zero
    (List.assoc_opt cls
       (Engine.cache_snapshot_delta ~before (Engine.cache_snapshot ())))

let test_reload_then_answer_identity () =
  with_jobs 4 @@ fun () ->
  Engine.cache_clear_all ();
  let fresh = decision_workload () in
  with_temp (fun path ->
      ignore (save_ok ~caches:true path);
      Engine.cache_clear_all ();
      let _, c = load_ok path in
      check "the decision store was restored" true
        (match List.assoc_opt "decision/pl_word" c.Snapshot.c_caches with
        | Some n -> n > 0
        | None -> false);
      let before = Engine.cache_snapshot () in
      let reloaded = decision_workload () in
      check "reloaded answers are byte-identical to the fresh run" true
        (reloaded = fresh);
      let d = class_delta "decision" ~before in
      check "the re-run was served from restored entries" true (d.G.hits > 0))

let test_budget_monotone_after_reload () =
  Engine.cache_clear_all ();
  let goal = Automata.Nfa.of_regex ~alphabet_size:2 (Automata.Regex.parse "ab")
  and components =
    [ ("c0", Automata.Nfa.of_regex ~alphabet_size:2 (Automata.Regex.parse "ab")) ]
  in
  (* the chain-length bound (the budget's depth axis) is part of the
     memo key — it shapes the plan enumeration — so the monotone axis a
     reload must preserve is the node meter *)
  let run nodes =
    Compose.compose_mdtb
      ~budget:
        (Engine.Budget.combine (Engine.Budget.of_depth 2)
           (Engine.Budget.of_nodes nodes))
      ~goal ~components ()
  in
  (match run 50 with
  | Compose.Found _ -> ()
  | _ -> Alcotest.fail "expected a plan under a 50-node budget");
  with_temp (fun path ->
      ignore (save_ok ~caches:true path);
      Engine.cache_clear_all ();
      ignore (load_ok path);
      (* the restored entry carries the 50-node budget it was computed
         under: a roomier request subsumes it and is served ... *)
      let before = Engine.cache_snapshot () in
      (match run 500 with
      | Compose.Found _ -> ()
      | _ -> Alcotest.fail "expected the restored plan under 500 nodes");
      let d = class_delta "compose" ~before in
      check "larger budget served from the restored entry" true (d.G.hits >= 1);
      (* ... and a tighter request must recompute, exactly as before the
         reload *)
      let before = Engine.cache_snapshot () in
      ignore (run 1);
      let d = class_delta "compose" ~before in
      check_int "smaller budget recomputes after reload" 0 d.G.hits)

(* ------------------------------------------------------------------ *)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    Alcotest.test_case "reader bounds are checked" `Quick
      test_wire_reader_bounds;
    Alcotest.test_case "interner ids are stable across reload" `Quick
      test_id_stability;
    QCheck_alcotest.to_alcotest prop_packed_roundtrip;
    QCheck_alcotest.to_alcotest prop_relation_file_roundtrip;
    Alcotest.test_case "components round-trip" `Quick
      test_components_roundtrip;
    Alcotest.test_case "truncated files are rejected" `Quick
      test_reject_truncated;
    Alcotest.test_case "a flipped byte fails the digest" `Quick
      test_reject_bad_digest;
    Alcotest.test_case "a wrong format version is rejected" `Quick
      test_reject_wrong_version;
    Alcotest.test_case "a foreign magic is rejected" `Quick
      test_reject_bad_magic;
    Alcotest.test_case "restore respects the byte cap" `Quick
      test_restore_respects_byte_cap;
    Alcotest.test_case "reload-then-answer is byte-identical" `Quick
      test_reload_then_answer_identity;
    Alcotest.test_case "budget-monotone serving survives reload" `Quick
      test_budget_monotone_after_reload;
  ]
