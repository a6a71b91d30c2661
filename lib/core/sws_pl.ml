(* SWS(PL, PL): synthesized Web services that are not data-driven
   (Section 2, "SWS classes").  The local database is empty, an input
   message is a truth assignment over the service's input variables,
   message and action registers hold a single truth value, and all rule
   queries are propositional formulas:

   - a transition query phi_i is a formula over the input variables and the
     reserved variable "@msg" standing for the parent's message register;
   - the synthesis query of a final state (empty rhs) is a formula over the
     input variables and "@msg";
   - the synthesis query of an internal state with k successors is a formula
     over the reserved variables "act1", ..., "actk".

   This mirrors Figure 1(b): each state keeps its truth value in a register
   and a parent's value is a Boolean function of its successors' values
   (e.g. X3 = Y1 \/ (~Y1 /\ Y2)). *)

module Prop = Proplogic.Prop

let msg_var = "@msg"

(* Names for the first 64 successors, so the hot paths (every rule of
   every service) share them instead of formatting one per use. *)
let act_names = Array.init 64 (fun i -> Printf.sprintf "act%d" (i + 1))

let act_var i =
  if i < Array.length act_names then act_names.(i)
  else Printf.sprintf "act%d" (i + 1)

type query = Prop.t

type t = {
  stamp : int;
  input_vars : string list;
  def : (query, query) Sws_def.t;
  repr : string; (* canonical content repr, see [canonical_repr] *)
}

let next_stamp = ref 0

let fresh_stamp () =
  incr next_stamp;
  !next_stamp

exception Ill_formed = Sws_def.Ill_formed

(* [(what, q)] names the query for the error message, which is only
   formatted when the check fails. *)
let check_vars ~allowed (what, q) f =
  List.iter
    (fun x ->
      if not (List.mem x allowed) then
        raise
          (Ill_formed
             (Printf.sprintf "variable %s not allowed in %s of %s" x what q)))
    (Prop.vars f)

let make ~input_vars ~start ~rules =
  let def = Sws_def.make ~start ~rules in
  (* Exact content identity: see Sws_data.canonical_repr for why
     marshalling is canonical enough here (equal services are built
     through identical construction sequences on every reuse path). *)
  let repr = Marshal.to_string (input_vars, def) [ Marshal.No_sharing ] in
  let t =
    {
      stamp = fresh_stamp ();
      input_vars;
      def;
      repr;
    }
  in
  let env_vars = msg_var :: input_vars in
  Sws_def.fold_rules
    (fun q (r : (query, query) Sws_def.rule) () ->
      List.iter
        (fun (_, phi) ->
          check_vars ~allowed:env_vars ("transition query", q) phi)
        r.succs;
      match r.succs with
      | [] ->
        check_vars ~allowed:env_vars ("final synthesis query", q) r.synth
      | succs ->
        let acts = List.mapi (fun i _ -> act_var i) succs in
        check_vars ~allowed:acts ("synthesis query", q) r.synth)
    def ();
  t

let stamp t = t.stamp
let canonical_repr t = t.repr
let def t = t.def
let input_vars t = t.input_vars
let is_recursive t = Sws_def.is_recursive t.def
let depth t = Sws_def.depth t.def

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

module Sem = struct
  type db = unit
  type input = Prop.assignment
  type msg = bool
  type act = bool
  type trans_query = query
  type synth_query = query

  let msg_is_empty m = not m

  let env input msg =
    if msg then Prop.Sset.add msg_var input else input

  let apply_trans () input msg f = Prop.eval (env input msg) f
  let synth_final () input msg f = Prop.eval (env input msg) f

  let synth_combine acts f =
    let assignment =
      List.fold_left
        (fun a (i, v) -> if v then Prop.Sset.add (act_var i) a else a)
        Prop.Sset.empty
        (List.mapi (fun i v -> (i, v)) acts)
    in
    Prop.eval assignment f
end

module Run = Exec_tree.Make (Sem)

let run_tree t inputs =
  Run.run_tree t.def () inputs ~initial_msg:false ~empty_act:false

(* tau(D, I) for the PL class: a single truth value. *)
let run t inputs = Run.run t.def () inputs ~initial_msg:false ~empty_act:false

(* ------------------------------------------------------------------ *)
(* Symbol encoding: assignments over the input variables as an integer
   alphabet (bitmask in the order of [input_vars]).                    *)
(* ------------------------------------------------------------------ *)

let alphabet_size t = 1 lsl List.length t.input_vars

let assignment_of_symbol t s =
  List.fold_left
    (fun (a, i) x ->
      ((if s land (1 lsl i) <> 0 then Prop.Sset.add x a else a), i + 1))
    (Prop.Sset.empty, 0) t.input_vars
  |> fst

let symbol_of_assignment t a =
  List.fold_left
    (fun (s, i) x ->
      ((if Prop.assignment_mem x a then s lor (1 lsl i) else s), i + 1))
    (0, 0) t.input_vars
  |> fst

let accepts_word t word =
  run t (List.map (assignment_of_symbol t) word)

(* ------------------------------------------------------------------ *)
(* The vector DFA of the reversed language, bit-sliced                 *)
(* ------------------------------------------------------------------ *)

module Bs = Repr.Bitset

(* Symbols per mask word: one short of an int's bits, so none is negative. *)
let word_width = Sys.int_size - 1

(* The i below [n] with [act_var i] = [x]: the successor [x] names. *)
let rec act_index x n i =
  if i = n then None
  else if String.equal x (act_var i) then Some i
  else act_index x n (i + 1)

(* A live (state, message bit) pair, compiled: a final state's synthesis
   query as a constant symbol mask, an internal state's as a program
   giving word b of its value under the vector being stepped ([out]
   holds the row's result by word). *)
type pair = Const of int array | Rule of { prog : int -> int; out : int array }

(* The service's language, read as an alternating automaton over
   (SWS state, message bit) pairs, is what Theorem 4.1(3) decides along
   the lines of AFA non-emptiness.  From an alive pair on symbol a:

   - a final SWS state is true iff its synthesis query psi(a, m) holds
     (its value ignores the rest of the sequence);
   - an internal state is psi with act_i replaced by "phi_i(a, m) holds
     and the pair (q_i, true) is true on the rest".

   A non-root pair with message false is false whatever follows, and the
   start state is never a successor (Definition 2.1), so the live pairs
   are (start, false), numbered 0, and (q, true) for every state q,
   numbered 1 + its position in [Sws_def.states].  No pair is true on the
   empty suffix: a node whose timestamp exceeds the input length gets the
   empty action (rule (1)).

   The explorer's states are the truth vectors of these pairs on the
   suffixes read so far, so it is the DFA of the reversed language: it
   starts from the empty vector and accepts when pair 0 is true.  A row
   steps a vector on every symbol at once.  Bit j of word b of a mask is
   the value under symbol b * [word_width] + j: every query is compiled
   to a program over such words, [Not] being the complement within the
   alphabet.  A transition query is evaluated once, to the mask of its
   child literal; a synthesis query once per row and word, each literal
   reading its mask when its child pair is in the vector and zero
   otherwise.  Each symbol's successor vector is then read off by bit
   tests.  The first row compiles the service: a search that reads no
   row compiles nothing. *)
let explore t =
  let k = alphabet_size t in
  let nwords = (k + word_width - 1) / word_width in
  let width b = min word_width (k - (b * word_width)) in
  let compile () =
    let full = Array.init nwords (fun b -> (1 lsl width b) - 1) in
    let program leaf f =
      let rec go = function
        | Prop.True -> fun b -> full.(b)
        | Prop.False -> fun _ -> 0
        | Prop.Var x -> leaf x
        | Prop.Not f ->
          let f = go f in
          fun b -> full.(b) land lnot (f b)
        | Prop.And (f, g) ->
          let f = go f and g = go g in
          fun b -> f b land g b
        | Prop.Or (f, g) ->
          let f = go f and g = go g in
          fun b -> f b lor g b
        | Prop.Implies (f, g) ->
          let f = go f and g = go g in
          fun b -> (full.(b) land lnot (f b)) lor g b
        | Prop.Iff (f, g) ->
          let f = go f and g = go g in
          fun b -> full.(b) land lnot (f b lxor g b)
      in
      go f
    in
    (* Input position i's mask: the symbols that set bit i, built on
       first use.  A variable is true when any of its positions is set,
       and [msg_var] also when the message is, as in the assignment
       [Sem.env] builds.  A transition or final query is compiled once
       per message bit, however many rules share it. *)
    let positions = Array.make (List.length t.input_vars) [||] in
    let position i =
      if Array.length positions.(i) = 0 then
        positions.(i) <-
          Array.init nwords (fun b ->
              let m = ref 0 in
              for j = 0 to width b - 1 do
                if ((b * word_width) + j) land (1 lsl i) <> 0 then
                  m := !m lor (1 lsl j)
              done;
              !m);
      positions.(i)
    in
    let var_mask ~msg x =
      if msg && String.equal x msg_var then full
      else
        let m = Array.make nwords 0 in
        List.iteri
          (fun i y ->
            if String.equal x y then
              Array.iteri (fun b p -> m.(b) <- m.(b) lor p) (position i))
          t.input_vars;
        m
    in
    let queries = [| Hashtbl.create 16; Hashtbl.create 16 |] in
    let query ~msg f =
      let memo = queries.(Bool.to_int msg) in
      match Hashtbl.find memo f with
      | m -> m
      | exception Not_found ->
        let m =
          Array.init nwords
            (program
               (fun x ->
                 let m = var_mask ~msg x in
                 fun b -> m.(b))
               f)
        in
        Hashtbl.add memo f m;
        m
    in
    let states = Array.of_list (Sws_def.states t.def) in
    let index = Hashtbl.create 16 in
    Array.iteri (fun i q -> Hashtbl.replace index q i) states;
    let alive = Array.make (1 + Array.length states) false in
    let pair ~msg q =
      let rule = Sws_def.rule t.def q in
      match rule.Sws_def.succs with
      | [] -> Const (query ~msg rule.Sws_def.synth)
      | succs ->
        let literal (q_i, phi_i) =
          let c = 1 + Hashtbl.find index q_i and m = query ~msg phi_i in
          fun b -> if alive.(c) then m.(b) else 0
        in
        let literals = Array.of_list (List.map literal succs) in
        let leaf x =
          match act_index x (Array.length literals) 0 with
          | Some i -> literals.(i)
          | None -> fun _ -> 0 (* unreachable: checked by [make] *)
        in
        Rule { prog = program leaf rule.Sws_def.synth; out = Array.make nwords 0 }
    in
    let pairs =
      Array.append
        [| pair ~msg:false (Sws_def.start t.def) |]
        (Array.map (pair ~msg:true) states)
    in
    let npairs = Array.length pairs in
    (alive, pairs, Array.make npairs [||], Array.make npairs 0)
  in
  let compiled = lazy (compile ()) in
  let acc = Bs.acc_create () in
  let step v =
    (* [words.(p)] is pair p's value by word; [live] holds the pairs
       whose word b is not zero *)
    let alive, pairs, words, live = Lazy.force compiled in
    Array.fill alive 0 (Array.length alive) false;
    Bs.iter (fun p -> alive.(p) <- true) v;
    for p = 0 to Array.length pairs - 1 do
      match pairs.(p) with
      | Const m -> words.(p) <- m
      | Rule r ->
        for b = 0 to nwords - 1 do
          r.out.(b) <- r.prog b
        done;
        words.(p) <- r.out
    done;
    let succs = Array.make k Bs.empty in
    for b = 0 to nwords - 1 do
      let n = ref 0 in
      for p = 0 to Array.length pairs - 1 do
        if words.(p).(b) <> 0 then begin
          live.(!n) <- p;
          incr n
        end
      done;
      if !n > 0 then
        for j = 0 to width b - 1 do
          for i = 0 to !n - 1 do
            let p = live.(i) in
            if words.(p).(b) land (1 lsl j) <> 0 then Bs.acc_add acc p
          done;
          succs.((b * word_width) + j) <- Bs.acc_finish acc
        done
    done;
    succs
  in
  Automata.Dfa.Explorer.create ~alphabet_size:k ~start:Bs.empty ~final:(Bs.mem 0)
    ~step

(* ------------------------------------------------------------------ *)
(* Nonrecursive unfolding to a single formula                          *)
(* ------------------------------------------------------------------ *)

let timed_var x j = Printf.sprintf "%s@%d" x j

(* [unfold t ~n] is a propositional formula over variables "x@j"
   (input variable x at step j, 1-based) that is true exactly on the
   n-step input sequences with output true.  Only defined for
   nonrecursive services; this is the reduction behind the NP / coNP
   bounds of Theorem 4.1(3). *)
let unfold t ~n =
  if is_recursive t then invalid_arg "Sws_pl.unfold: recursive service";
  let time_subst j msg_formula =
    List.fold_left
      (fun m x -> Prop.Smap.add x (Prop.Var (timed_var x j)) m)
      (Prop.Smap.singleton msg_var msg_formula)
      t.input_vars
  in
  let rec value q j msg_formula ~is_root =
    if j > n then Prop.False
    else begin
      let rule = Sws_def.rule t.def q in
      let inner =
        match rule.Sws_def.succs with
        | [] -> Prop.subst (time_subst j msg_formula) rule.Sws_def.synth
        | succs ->
          let act_map =
            List.mapi
              (fun i (q_i, phi_i) ->
                let child_msg = Prop.subst (time_subst j msg_formula) phi_i in
                (act_var i, value q_i (j + 1) child_msg ~is_root:false))
              succs
          in
          Prop.subst
            (List.fold_left
               (fun m (x, f) -> Prop.Smap.add x f m)
               Prop.Smap.empty act_map)
            rule.Sws_def.synth
      in
      let guarded =
        if is_root then inner else Prop.And (msg_formula, inner)
      in
      Prop.simplify guarded
    end
  in
  value (Sws_def.start t.def) 1 Prop.False ~is_root:true

let pp ppf t =
  Fmt.pf ppf "@[<v>input vars: %a@ %a@]"
    Fmt.(list ~sep:(any ", ") string)
    t.input_vars
    (Sws_def.pp Prop.pp Prop.pp)
    t.def
