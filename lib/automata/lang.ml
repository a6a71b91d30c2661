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

type limits = {
  max_states : int option;
  max_depth : int option;
  deadline_s : float option;
}

let no_limits = { max_states = None; max_depth = None; deadline_s = None }
let limits ?max_states ?max_depth ?deadline_s () = { max_states; max_depth; deadline_s }

type trip = {
  tripped : [ `States | `Depth | `Deadline ];
  depth_reached : int;
  states_explored : int;
}

let pp_trip ppf t =
  Fmt.pf ppf "tripped %s at depth %d after %d states"
    (match t.tripped with
    | `States -> "max_states"
    | `Depth -> "max_depth"
    | `Deadline -> "deadline")
    t.depth_reached t.states_explored

type 'a run = ('a, trip) result

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

(* Deadlines only arm a clock when requested; checked per expansion. *)
let deadline_hit started = function
  | None -> false
  | Some s ->
      Int64.to_float (Obs.Clock.elapsed_ns started) >= s *. 1e9

exception Found of int list
exception Tripped of trip

(* One antichain cell: the sets kept for a single sub-state, newest
   first, each tagged with the BFS level that produced it. *)
type cell = { mutable kept : (Iset.t * int) list }

let antichain_contains_cex ~limits:lim ~sup ~sub () =
  let k = Nfa.alphabet_size sub in
  let started = Obs.Clock.now_ns () in
  let explored = ref 0 in
  let kept_pairs = ref 0 in
  let run_peak = ref 0 in
  let sup_finals = Nfa.final_set sup in
  let sub_finals = Nfa.final_set sub in
  let rejecting s = not (Iset.intersects s sup_finals) in
  let chain : (int, cell) Hashtbl.t = Hashtbl.create 64 in
  let queue : (int * Iset.t * int list * int) Queue.t = Queue.create () in
  let trip tripped depth =
    raise (Tripped { tripped; depth_reached = depth; states_explored = !explored })
  in
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
  let result =
    try
      let sub_start = Nfa.eps_closure sub (Nfa.start_set sub) in
      let sup_start = Nfa.eps_closure sup (Nfa.start_set sup) in
      Iset.iter (fun p -> insert p sup_start [] 0) sub_start;
      let depth_capped = ref false in
      while not (Queue.is_empty queue) do
        let p, s, rev_word, level = Queue.pop queue in
        (* Retro-dropped while queued: its counterexamples are covered by
           the same-level pair that dropped it. *)
        if live p s then begin
          (match lim.max_states with
          | Some n when !explored >= n -> trip `States level
          | _ -> ());
          incr explored;
          Atomic.incr states_total;
          if deadline_hit started lim.deadline_s then trip `Deadline level;
          match lim.max_depth with
          | Some d when level >= d ->
              (* Children would exceed the depth cap: remember that the
                 frontier was cut so a drained queue is not a verdict. *)
              depth_capped := true
          | _ ->
              for a = 0 to k - 1 do
                let ps' = Nfa.post sub p a in
                if not (Iset.is_empty ps') then begin
                  let s' = Nfa.step sup s a in
                  Iset.iter (fun p' -> insert p' s' (a :: rev_word) (level + 1)) ps'
                end
              done
        end
      done;
      if !depth_capped then
        Error
          {
            tripped = `Depth;
            depth_reached = (match lim.max_depth with Some d -> d | None -> 0);
            states_explored = !explored;
          }
      else Ok None
    with
    | Found w -> Ok (Some w)
    | Tripped t -> Error t
  in
  raise_peak !run_peak;
  result

let check_alphabets a b =
  if Nfa.alphabet_size a <> Nfa.alphabet_size b then
    invalid_arg "Lang: alphabet size mismatch"

let contains_cex ?(limits = no_limits) sup sub =
  check_alphabets sup sub;
  Obs.Trace.span "lang.contains" @@ fun () ->
  antichain_contains_cex ~limits ~sup ~sub ()

let contains ?limits sup sub =
  Result.map Option.is_none (contains_cex ?limits sup sub)

let equivalent_cex ?limits n1 n2 =
  Obs.Trace.span "lang.equivalent" @@ fun () ->
  match contains_cex ?limits n2 n1 with
  | Ok (Some w) -> Ok (Some w)
  | Error _ as e -> e
  | Ok None -> contains_cex ?limits n1 n2

let equivalent ?limits n1 n2 =
  Result.map Option.is_none (equivalent_cex ?limits n1 n2)

(* Metered emptiness: reachability fixpoint on eps-closed state sets,
   no determinization. *)
let is_empty ?(limits = no_limits) n =
  Obs.Trace.span "lang.is_empty" @@ fun () ->
  let k = Nfa.alphabet_size n in
  let started = Obs.Clock.now_ns () in
  let finals = Nfa.final_set n in
  let explored = ref 0 in
  let trip tripped depth =
    raise (Tripped { tripped; depth_reached = depth; states_explored = !explored })
  in
  try
    let visited = ref (Nfa.eps_closure n (Nfa.start_set n)) in
    let frontier = ref !visited in
    let depth = ref 0 in
    if Iset.intersects !visited finals then Ok false
    else begin
      let capped = ref false in
      while not (Iset.is_empty !frontier) && not !capped do
        (match limits.max_depth with
        | Some d when !depth >= d -> capped := true
        | _ ->
            incr depth;
            explored := !explored + Iset.cardinal !frontier;
            (match limits.max_states with
            | Some m when !explored > m -> trip `States !depth
            | _ -> ());
            if deadline_hit started limits.deadline_s then trip `Deadline !depth;
            let next = ref Iset.empty in
            for a = 0 to k - 1 do
              next := Iset.union !next (Nfa.step n !frontier a)
            done;
            let fresh = Iset.diff !next !visited in
            if Iset.intersects fresh finals then raise (Found []);
            visited := Iset.union !visited fresh;
            frontier := fresh)
      done;
      if !capped && not (Iset.is_empty !frontier) then
        trip `Depth !depth
      else Ok true
    end
  with
  | Found _ -> Ok false
  | Tripped t -> Error t
