(* Lazy language decisions by antichain-pruned product/subset exploration.

   Containment L(sub) <= L(sup) is decided over pairs (p, S): p a single
   state of [sub], S the eps-closed set of [sup] states reachable on the
   same word.  A pair with p final and S disjoint from sup's finals
   witnesses a counterexample.  Rejection is antitone in S — every word
   rejected from S is rejected from any S' <= S — so a candidate pair
   subsumed by an already-kept (p, S') with S' <= S explores nothing new
   and is pruned (an O(words) Bitset.subset test per kept set).

   Pruning discipline: candidates are always pruned against every kept
   set, but a kept pair is retro-dropped only by a *same-level* smaller
   arrival.  Dropping a shallower pair from the BFS queue would re-route
   its counterexamples through a deeper pair and lose witness minimality;
   keeping it costs memory, not expansions (it was already dequeued).
   With this discipline the BFS level order is exact, so the first
   counterexample found is shortest, and exploration is sequential and
   deterministic — verdicts and witnesses are invariant under SWS_JOBS. *)

module Iset = Repr.Bitset

(* Process-wide gauges, read at snapshot time by Engine.Stats and the
   server telemetry registry (the Bitset.allocations pattern). *)
let states_total = Atomic.make 0
let peak = Atomic.make 0
let prunes_total = Atomic.make 0
let states_explored_total () = Atomic.get states_total
let antichain_peak () = Atomic.get peak
let subsumption_prunes_total () = Atomic.get prunes_total

let rec raise_peak v =
  let cur = Atomic.get peak in
  if v > cur && not (Atomic.compare_and_set peak cur v) then raise_peak v

exception Found of int list

(* One antichain cell: the sets kept for a single sub-state, newest
   first, each tagged with the BFS level that produced it. *)
type cell = { mutable kept : (Iset.t * int) list }

let antichain_contains_cex ~on_pair ~sup ~sub () =
  let k = Nfa.alphabet_size sub in
  let kept_pairs = ref 0 in
  let run_peak = ref 0 in
  let sup_finals = Nfa.final_set sup in
  let sub_finals = Nfa.final_set sub in
  let rejecting s = not (Iset.intersects s sup_finals) in
  let chain : (int, cell) Hashtbl.t = Hashtbl.create 64 in
  let queue : (int * Iset.t * int list * int) Queue.t = Queue.create () in
  (* Insert candidate (p, s) discovered at [level] by word [rev_word]
     (reversed).  Raises [Found] on a counterexample; returns whether the
     pair was kept (and queued). *)
  let insert p s rev_word level =
    let cell =
      match Hashtbl.find_opt chain p with
      | Some c -> c
      | None ->
          let c = { kept = [] } in
          Hashtbl.add chain p c;
          c
    in
    if List.exists (fun (s', _) -> Iset.subset s' s) cell.kept then
      Atomic.incr prunes_total
    else begin
      if Iset.mem p sub_finals && rejecting s then raise (Found (List.rev rev_word));
      let survivors, dropped =
        List.partition
          (fun (s'', lvl'') -> not (lvl'' = level && Iset.subset s s''))
          cell.kept
      in
      List.iter (fun _ -> Atomic.incr prunes_total) dropped;
      cell.kept <- (s, level) :: survivors;
      kept_pairs := !kept_pairs + 1 - List.length dropped;
      if !kept_pairs > !run_peak then run_peak := !kept_pairs;
      Queue.push (p, s, rev_word, level) queue
    end
  in
  let live p s =
    match Hashtbl.find_opt chain p with
    | None -> false
    | Some c -> List.exists (fun (s', _) -> Iset.equal s' s) c.kept
  in
  (* A hook that raises stops the search; the peak is recorded either way. *)
  Fun.protect ~finally:(fun () -> raise_peak !run_peak) @@ fun () ->
  try
    let sub_start = Nfa.eps_closure sub (Nfa.start_set sub) in
    let sup_start = Nfa.eps_closure sup (Nfa.start_set sup) in
    Iset.iter (fun p -> insert p sup_start [] 0) sub_start;
    while not (Queue.is_empty queue) do
      let p, s, rev_word, level = Queue.pop queue in
      (* Retro-dropped while queued: its counterexamples are covered by
         the same-level pair that dropped it. *)
      if live p s then begin
        on_pair ();
        Atomic.incr states_total;
        for a = 0 to k - 1 do
          let ps' = Nfa.post sub p a in
          if not (Iset.is_empty ps') then begin
            let s' = Nfa.step sup s a in
            Iset.iter (fun p' -> insert p' s' (a :: rev_word) (level + 1)) ps'
          end
        done
      end
    done;
    None
  with Found w -> Some w

let check_alphabets a b =
  if Nfa.alphabet_size a <> Nfa.alphabet_size b then
    invalid_arg "Lang: alphabet size mismatch"

let contains_cex_hooked ~on_pair sup sub =
  check_alphabets sup sub;
  Obs.Trace.span "lang.contains" @@ fun () ->
  antichain_contains_cex ~on_pair ~sup ~sub ()

let contains_cex sup sub = contains_cex_hooked ~on_pair:ignore sup sub
let contains sup sub = Option.is_none (contains_cex sup sub)

let equivalent_cex ?(on_pair = ignore) n1 n2 =
  Obs.Trace.span "lang.equivalent" @@ fun () ->
  match contains_cex_hooked ~on_pair n2 n1 with
  | Some w -> Some w
  | None -> contains_cex_hooked ~on_pair n1 n2

let equivalent n1 n2 = Option.is_none (equivalent_cex n1 n2)
