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
module Afa = Automata.Afa

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
(* Translation to alternating automata                                 *)
(* ------------------------------------------------------------------ *)

(* A transition or final-state synthesis query compiled to a predicate on
   a symbol's bit mask with the message bit placed after the input
   variables: [compile_query t f (s lor (1 lsl n))], for [n] input
   variables, is [Prop.eval] of [f] under symbol [s] with the message set
   (without the bit: unset).  A variable is true when any of its input
   positions (and, for [msg_var], the message bit) is set, which is
   [Prop.eval]'s reading of the assignment [Sem.env] builds. *)
let compile_query t =
  let n = List.length t.input_vars in
  let mask x =
    let m, _ =
      List.fold_left
        (fun (m, i) y -> ((if String.equal x y then m lor (1 lsl i) else m), i + 1))
        (0, 0) t.input_vars
    in
    if String.equal x msg_var then m lor (1 lsl n) else m
  in
  let rec go = function
    | Prop.True -> fun _ -> true
    | Prop.False -> fun _ -> false
    | Prop.Var x ->
      let m = mask x in
      fun s -> s land m <> 0
    | Prop.Not f ->
      let f = go f in
      fun s -> not (f s)
    | Prop.And (f, g) ->
      let f = go f and g = go g in
      fun s -> f s && g s
    | Prop.Or (f, g) ->
      let f = go f and g = go g in
      fun s -> f s || g s
    | Prop.Implies (f, g) ->
      let f = go f and g = go g in
      fun s -> (not (f s)) || g s
    | Prop.Iff (f, g) ->
      let f = go f and g = go g in
      fun s -> Bool.equal (f s) (g s)
  in
  go

(* An internal state's synthesis query as an AFA condition builder: each
   [act_var i] is resolved to child [i] once per state, and the result maps
   one cell's child literals to the cell's condition.  The connectives fold
   constants, which keeps the truth value of every condition under every
   vector. *)
let synth_form acts synth =
  let f_not = function
    | Afa.Ftrue -> Afa.Ffalse
    | Afa.Ffalse -> Afa.Ftrue
    | f -> Afa.Fnot f
  in
  let f_and a b =
    match (a, b) with
    | Afa.Ffalse, _ | _, Afa.Ffalse -> Afa.Ffalse
    | Afa.Ftrue, x | x, Afa.Ftrue -> x
    | _ -> Afa.Fand (a, b)
  in
  let f_or a b =
    match (a, b) with
    | Afa.Ftrue, _ | _, Afa.Ftrue -> Afa.Ftrue
    | Afa.Ffalse, x | x, Afa.Ffalse -> x
    | _ -> Afa.For (a, b)
  in
  let rec go = function
    | Prop.True -> fun _ -> Afa.Ftrue
    | Prop.False -> fun _ -> Afa.Ffalse
    | Prop.Var x -> (
      match List.assoc_opt x acts with
      | Some i -> fun lits -> lits.(i)
      | None -> fun _ -> Afa.Ffalse (* unreachable: checked by [make] *))
    | Prop.Not f ->
      let f = go f in
      fun l -> f_not (f l)
    | Prop.And (f, g) ->
      let f = go f and g = go g in
      fun l -> f_and (f l) (g l)
    | Prop.Or (f, g) ->
      let f = go f and g = go g in
      fun l -> f_or (f l) (g l)
    | Prop.Implies (f, g) ->
      let f = go f and g = go g in
      fun l -> f_or (f_not (f l)) (g l)
    | Prop.Iff (f, g) ->
      let f = go f and g = go g in
      fun l ->
        let a = f l and b = g l in
        f_or (f_and a b) (f_and (f_not a) (f_not b))
  in
  go synth

(* The AFA of the service's language (sequences with output true).  States
   are (SWS state, message bit) pairs: the message bit is the only extra
   run-time state a node carries.  From an alive pair on symbol a:

   - a final SWS state contributes the constant psi(a, m) (its value ignores
     the rest of the sequence);
   - an internal state contributes psi with act_i replaced by the pair state
     (q_i, phi_i(a, m)).

   Dead pairs (non-root, message false) have constant-false transitions, and
   no state is AFA-final: a node whose timestamp exceeds the input length
   gets the empty action (rule (1)), i.e. value false on the empty suffix.
   So a dead pair is false in every truth vector.  The start state is never
   a successor (Definition 2.1, checked by [Sws_def.make]), so a child whose
   message is false names a dead pair: its literal is the constant false.
   The start pair is (q0, false): the root proceeds despite its empty
   message when the input is nonempty. *)
let to_afa t =
  let states = Array.of_list (Sws_def.states t.def) in
  let index =
    let tbl = Hashtbl.create 16 in
    Array.iteri (fun i q -> Hashtbl.add tbl q i) states;
    fun q -> Hashtbl.find tbl q
  in
  let alphabet_size = alphabet_size t in
  let start_name = Sws_def.start t.def in
  let msg_bit = alphabet_size in
  let query = compile_query t in
  (* One state's rows, its queries compiled once for both message bits. *)
  let rows q =
    let rule = Sws_def.rule t.def q in
    match rule.Sws_def.succs with
    | [] ->
      let synth = query rule.Sws_def.synth in
      fun m ->
        Array.init alphabet_size (fun s ->
            if synth (s lor m) then Afa.Ftrue else Afa.Ffalse)
    | succs ->
      let literal (q_i, phi_i) =
        let alive = Afa.State ((2 * index q_i) + 1) and phi_i = query phi_i in
        fun s -> if phi_i s then alive else Afa.Ffalse
      in
      let children = Array.of_list (List.map literal succs) in
      let synth =
        synth_form (List.mapi (fun i _ -> (act_var i, i)) succs) rule.Sws_def.synth
      in
      fun m ->
        Array.init alphabet_size (fun s ->
            let s = s lor m in
            synth (Array.map (fun child -> child s) children))
  in
  let delta = Array.make (2 * Array.length states) [||] in
  Array.iteri
    (fun i q ->
      let rows = rows q in
      delta.(2 * i) <-
        (if String.equal q start_name then rows 0
         else Array.make alphabet_size Afa.Ffalse);
      delta.((2 * i) + 1) <- rows msg_bit)
    states;
  Afa.create ~alphabet_size ~start:(2 * index start_name) ~finals:[] ~delta

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
