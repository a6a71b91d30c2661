(* Conjunctive queries with equality and inequality (the language CQ of the
   paper, Section 2).  A query is

       head(x1, ..., xn) :- A1, ..., Am, t1 <> t1', ..., tk <> tk'

   Equalities are normalized away at construction time by substitution.
   Containment with inequalities uses Klug's technique: instead of the single
   Chandra-Merlin canonical database, one canonical database per partition of
   the query's terms consistent with its inequalities. *)

module Smap = Map.Make (String)

type t = {
  head : Term.t list;
  body : Atom.t list;
  neqs : (Term.t * Term.t) list;
}

exception Unsatisfiable

exception Unsafe of string

let body_vars body =
  List.concat_map Atom.vars body |> List.sort_uniq String.compare

let term_vars ts =
  List.filter_map (function Term.Var x -> Some x | Term.Const _ -> None) ts

let vars q =
  body_vars q.body
  @ term_vars q.head
  @ term_vars (List.concat_map (fun (a, b) -> [ a; b ]) q.neqs)
  |> List.sort_uniq String.compare

let constants q =
  let of_terms ts =
    List.filter_map (function Term.Const v -> Some v | Term.Var _ -> None) ts
  in
  List.concat_map Atom.constants q.body
  @ of_terms q.head
  @ of_terms (List.concat_map (fun (a, b) -> [ a; b ]) q.neqs)
  |> List.sort_uniq Value.compare

(* Solve a set of equalities into a variable-to-term substitution (a simple
   union-find by repeated rewriting).  Raises [Unsatisfiable] on c = c'. *)
let solve_eqs eqs =
  let rec add subst = function
    | [] -> subst
    | (a, b) :: rest ->
      let resolve t =
        match t with
        | Term.Var x -> ( match Smap.find_opt x subst with Some t' -> t' | None -> t)
        | Term.Const _ -> t
      in
      let a = resolve a and b = resolve b in
      if Term.equal a b then add subst rest
      else begin
        match a, b with
        | Term.Const _, Term.Const _ -> raise Unsatisfiable
        | Term.Var x, t | t, Term.Var x ->
          let replace u = if Term.equal u (Term.Var x) then t else u in
          let subst = Smap.map replace subst in
          add (Smap.add x t subst) rest
      end
  in
  add Smap.empty eqs

let apply_var_subst subst q =
  let on_term = function
    | Term.Var x as t -> ( match Smap.find_opt x subst with Some t' -> t' | None -> t)
    | Term.Const _ as t -> t
  in
  {
    head = List.map on_term q.head;
    body = List.map (Atom.map_terms on_term) q.body;
    neqs = List.map (fun (a, b) -> (on_term a, on_term b)) q.neqs;
  }

let check_safety q =
  let bound = body_vars q.body in
  let check_term where t =
    match t with
    | Term.Const _ -> ()
    | Term.Var x ->
      if not (List.mem x bound) then
        raise (Unsafe (Printf.sprintf "variable %s in %s not bound by body" x where))
  in
  List.iter (check_term "head") q.head;
  List.iter
    (fun (a, b) ->
      check_term "inequality" a;
      check_term "inequality" b)
    q.neqs

let make ?(eqs = []) ?(neqs = []) ~head ~body () =
  let q = { head; body; neqs } in
  let q = if eqs = [] then q else apply_var_subst (solve_eqs eqs) q in
  check_safety q;
  q

let head_arity q = List.length q.head

let rename prefix q =
  let on_term = function
    | Term.Var x -> Term.Var (prefix ^ x)
    | Term.Const _ as t -> t
  in
  {
    head = List.map on_term q.head;
    body = List.map (Atom.map_terms on_term) q.body;
    neqs = List.map (fun (a, b) -> (on_term a, on_term b)) q.neqs;
  }

let schema_of q =
  List.fold_left
    (fun s a -> Schema.add a.Atom.rel (Atom.arity a) s)
    Schema.empty q.body

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

(* The evaluator runs at the id level: atoms are precompiled once per call
   into arrays of interned-constant ids and variable names, tuples stay
   packed ({!Repr.Ituple}), and unification compares ints.  Externing back to
   [Value.t] happens only at the [Subst] boundary for callers. *)
type iarg =
  | Ic of int (* interned constant *)
  | Iv of string

(* One body atom of the query plan: the atom, its compiled argument array,
   and its variables (for the greedy bound-variable scoring). *)
type plan_atom = {
  atom : Atom.t;
  iargs : iarg array;
  avars : string list;
}

let compile_atom atom =
  {
    atom;
    iargs =
      Array.of_list
        (List.map
           (function
             | Term.Const v -> Ic (Value.id v)
             | Term.Var x -> Iv x)
           atom.Atom.args);
    avars = Atom.vars atom;
  }

(* Top-level rather than nested in [unify_iargs]: a nested [rec go] closes
   over [iargs]/[it]/[n] and so allocates a closure per candidate tuple,
   which the scan join pays millions of times per query. *)
let rec unify_loop subst iargs it i n =
  if i = n then Some subst
  else
    match iargs.(i) with
    | Ic id ->
      if Repr.Ituple.get it i = id then unify_loop subst iargs it (i + 1) n
      else None
    | Iv x -> (
      match Subst.extend_id x (Repr.Ituple.get it i) subst with
      | Some subst -> unify_loop subst iargs it (i + 1) n
      | None -> None)

let unify_iargs subst iargs it =
  unify_loop subst iargs it 0 (Array.length iargs)

let atom_matches db subst pa =
  let rel = Database.find pa.atom.Atom.rel db in
  let arr = Relation.scan_array rel in
  let n = Array.length arr in
  let iargs = pa.iargs in
  let m = Array.length iargs in
  let rec go i acc =
    if i = n then acc
    else
      match unify_loop subst iargs arr.(i) 0 m with
      | Some s -> go (i + 1) (s :: acc)
      | None -> go (i + 1) acc
  in
  go 0 []

(* Positions of the atom whose id is already determined — a constant
   argument, or a variable bound by [subst] — with the determined ids.
   These form the probe key into the index. *)
let determined_positions subst pa =
  let n = Array.length pa.iargs in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      match pa.iargs.(i) with
      | Ic id -> go (i + 1) ((i, id) :: acc)
      | Iv x -> (
        match Subst.find_id x subst with
        | Some id -> go (i + 1) ((i, id) :: acc)
        | None -> go (i + 1) acc)
  in
  go 0 []

(* Index-backed variant of [atom_matches]: probe the per-database hash index
   on the atom's determined positions instead of folding the full relation.
   [unify_iargs] still runs on the probed tuples, to bind the free positions
   and enforce repeated-variable constraints the key cannot express. *)
let atom_matches_indexed db subst pa =
  match determined_positions subst pa with
  | [] -> atom_matches db subst pa
  | bound ->
    let rel = Database.find pa.atom.Atom.rel db in
    let positions = List.map fst bound and key = List.map snd bound in
    let tuples =
      Index.probe (Database.index_store db) ~name:pa.atom.Atom.rel rel
        ~positions key
    in
    List.fold_left
      (fun acc it ->
        match unify_iargs subst pa.iargs it with
        | Some s -> s :: acc
        | None -> acc)
      [] tuples

let compile_term = function
  | Term.Const v -> Ic (Value.id v)
  | Term.Var x -> Iv x

let iarg_id subst = function
  | Ic id -> Some id
  | Iv x -> Subst.find_id x subst

let neqs_hold subst neqs =
  List.for_all
    (fun (a, b) ->
      match iarg_id subst a, iarg_id subst b with
      | Some ia, Some ib -> ia <> ib
      | _ -> true (* unbound: cannot refute yet *))
    neqs

let bound_var_count subst pa =
  List.length (List.filter (fun x -> Subst.mem x subst) pa.avars)

(* Remove exactly the first occurrence (physically) of [b].  A plain
   [List.filter] on physical inequality would drop *every* occurrence at
   once when a body atom is shared, silently shortening the join.  The join
   applies it to plan atoms, whose list preserves the physical identity of
   its records. *)
let remove_one_atom b atoms =
  let rec go = function
    | [] -> []
    | a :: rest -> if a == b then rest else a :: go rest
  in
  go atoms

(* Minimum number of top-level join branches before the search forks onto
   the domain pool.  Below this the fork/join overhead dwarfs the branch
   work (typical test queries have a handful of matches); the bench join
   series runs thousands of branches. *)
let parallel_fanout_threshold = 16

(* Greedy sideways-information-passing: always expand the atom with the most
   already-bound variables (breaking ties towards smaller relations), so joins
   stay selective, and answer each expansion with a hash-index probe instead
   of a full relation scan. *)
let eval_substs q db =
  let plan = List.map compile_atom q.body in
  let neqs = List.map (fun (a, b) -> (compile_term a, compile_term b)) q.neqs in
  let pick subst atoms =
    let score a =
      ( -bound_var_count subst a,
        Relation.cardinal (Database.find a.atom.Atom.rel db) )
    in
    let best =
      List.fold_left
        (fun acc a ->
          match acc with
          | None -> Some a
          | Some b -> if score a < score b then Some a else acc)
        None atoms
    in
    Option.map (fun b -> (b, remove_one_atom b atoms)) best
  in
  let rec search subst atoms acc =
    if not (neqs_hold subst neqs) then acc
    else
      match pick subst atoms with
      | None -> if neqs_hold subst neqs then subst :: acc else acc
      | Some (atom, rest) ->
        List.fold_left
          (fun acc subst' -> search subst' rest acc)
          acc
          (atom_matches_indexed db subst atom)
  in
  (* Parallel mode forks the search at the root: the first picked atom's
     matches (one per tuple of the outer relation, in scan — i.e. bucket —
     order) each seed an independent branch, branches run across the pool,
     and branch results are concatenated in branch order.  Since
     [search s rest acc = search s rest [] @ acc], the reassembled list is
     element-for-element the sequential one for any job count — which is
     what keeps the join agreement-testable against [--jobs 1]. *)
  let jobs = Par.Pool.effective_jobs () in
  if jobs <= 1 then search Subst.empty plan []
  else if not (neqs_hold Subst.empty neqs) then []
  else
    match pick Subst.empty plan with
    | None -> if neqs_hold Subst.empty neqs then [ Subst.empty ] else []
    | Some (atom0, rest) ->
      let ms = atom_matches_indexed db Subst.empty atom0 in
      if List.length ms < parallel_fanout_threshold then
        List.fold_left (fun acc subst' -> search subst' rest acc) [] ms
      else
        let branches =
          Par.Pool.parallel_list_map (fun subst' -> search subst' rest []) ms
        in
        List.fold_left (fun acc branch -> branch @ acc) [] branches

let eval q db =
  Obs.Trace.span "cq_eval" @@ fun () ->
  let substs = eval_substs q db in
  (* head compiled once; answer tuples are assembled directly from ids *)
  let head = Array.of_list (List.map compile_term q.head) in
  List.fold_left
    (fun rel subst ->
      let ids =
        Array.map
          (fun a ->
            match iarg_id subst a with
            | Some id -> id
            | None ->
              invalid_arg "Cq.eval: unbound head variable (unsafe query)")
          head
      in
      Relation.add_interned (Repr.Ituple.of_array ids) rel)
    (Relation.empty (head_arity q))
    substs

(* ------------------------------------------------------------------ *)
(* Canonical databases and containment                                *)
(* ------------------------------------------------------------------ *)

(* Freeze the query: map each variable to a fresh labelled null and read the
   body off as a database (the Chandra-Merlin canonical database).  The
   supply defaults to a private one per call; callers that merge canonical
   databases from several freezes must pass a shared supply so nulls stay
   pairwise distinct. *)
let freeze ?supply q =
  let supply =
    match supply with Some s -> s | None -> Value.Fresh.supply ()
  in
  let subst =
    List.fold_left
      (fun s x -> Subst.bind x (Value.Fresh.next supply) s)
      Subst.empty (vars q)
  in
  (subst, q)

let ground_under ~schema subst q =
  (* ground at the id level: the substitution already stores ids, so atoms
     become interned tuples without a Value round trip per argument *)
  let term_id = function
    | Term.Const v -> Value.id v
    | Term.Var x -> (
      match Subst.find_id x subst with
      | Some i -> i
      | None -> invalid_arg "Subst.apply_term_exn: unbound variable")
  in
  let tuple_of args = Repr.Ituple.of_list (List.map term_id args) in
  let db =
    List.fold_left
      (fun db atom ->
        let rel = Database.find atom.Atom.rel db in
        Database.set atom.Atom.rel
          (Relation.add_interned (tuple_of atom.Atom.args) rel)
          db)
      (Database.empty schema) q.body
  in
  let goal = Tuple.extern (tuple_of q.head) in
  (db, goal)

(* All partitions of the query's variables into equivalence classes, where a
   class may be identified with one of the query's constants; distinct
   constants are never identified.  Each partition is returned as a valuation
   of the variables (class representatives are the constant, or a fresh
   labelled null), filtered for consistency with the query's inequalities.
   This is Klug's complete test set for containment of CQs with <>.  As with
   {!freeze}, the supply defaults to a private one per call. *)
let partitions ?supply q =
  let supply =
    match supply with Some s -> s | None -> Value.Fresh.supply ()
  in
  let xs = vars q in
  let consts = List.map Value.id (constants q) in
  let neqs = List.map (fun (a, b) -> (compile_term a, compile_term b)) q.neqs in
  (* classes and bindings are ids throughout; with every variable bound at a
     leaf, [neqs_hold] decides each inequality by one int comparison *)
  let rec go xs classes subst acc =
    match xs with
    | [] -> if neqs_hold subst neqs then subst :: acc else acc
    | x :: rest ->
      let acc =
        List.fold_left
          (fun acc repr -> go rest classes (Subst.bind_id x repr subst) acc)
          acc classes
      in
      let fresh = Value.id (Value.Fresh.next supply) in
      go rest (fresh :: classes) (Subst.bind_id x fresh subst) acc
  in
  go xs consts Subst.empty []

let combined_schema q1 q2s =
  List.fold_left
    (fun s q -> Schema.union s (schema_of q))
    (schema_of q1) q2s

(* [contained_in_many q qs]: is q contained in the union of the queries [qs]?
   Complete for CQs with <> (Klug).  When neither side uses <>, a single
   canonical database suffices; we special-case that for speed. *)
let contained_in_many q1 q2s =
  Obs.Trace.span "cq_containment" @@ fun () ->
  let q2s = List.filter (fun q2 -> head_arity q2 = head_arity q1) q2s in
  if q2s = [] then
    (* Containment in the empty union holds only if q1 is unsatisfiable. *)
    partitions q1 = []
  else begin
    let schema = combined_schema q1 q2s in
    (* one supply across every canonical database built in this test *)
    let supply = Value.Fresh.supply () in
    let check subst =
      let db, goal = ground_under ~schema subst q1 in
      List.exists (fun q2 -> Relation.mem goal (eval q2 db)) q2s
    in
    let no_neqs = q1.neqs = [] && List.for_all (fun q -> q.neqs = []) q2s in
    if no_neqs then
      let subst, _ = freeze ~supply q1 in
      check subst
    else List.for_all check (partitions ~supply q1)
  end

let contained_in q1 q2 = contained_in_many q1 [ q2 ]

(* A database on which q1 produces a tuple that no query of [q2s] does:
   the canonical database of the first failing partition. *)
let non_containment_witness q1 q2s =
  let q2s = List.filter (fun q2 -> head_arity q2 = head_arity q1) q2s in
  let schema = combined_schema q1 q2s in
  let refutes subst =
    let db, goal = ground_under ~schema subst q1 in
    if List.exists (fun q2 -> Relation.mem goal (eval q2 db)) q2s then None
    else Some (db, goal)
  in
  List.find_map refutes (partitions q1)

(* Sound but incomplete in the presence of <>: single frozen database only.
   Exposed for the containment ablation. *)
let contained_in_frozen_only q1 q2 =
  if head_arity q1 <> head_arity q2 then false
  else
    let schema = combined_schema q1 [ q2 ] in
    let subst, _ = freeze q1 in
    let db, goal = ground_under ~schema subst q1 in
    Relation.mem goal (eval q2 db)

let equivalent q1 q2 = contained_in q1 q2 && contained_in q2 q1

(* Core computation: greedily drop redundant body atoms while the query stays
   equivalent.  Safety is preserved by refusing drops that unbind head or
   inequality variables. *)
let minimize q =
  let needed = term_vars q.head @ term_vars (List.concat_map (fun (a, b) -> [ a; b ]) q.neqs) in
  let safe_without body =
    let bound = body_vars body in
    List.for_all (fun x -> List.mem x bound) needed
  in
  let rec drop_one kept = function
    | [] -> None
    | atom :: rest ->
      let body' = List.rev_append kept rest in
      if body' <> [] && safe_without body' then begin
        let q' = { q with body = body' } in
        if equivalent q q' then Some q' else drop_one (atom :: kept) rest
      end
      else drop_one (atom :: kept) rest
  in
  let rec fix q =
    match drop_one [] q.body with
    | Some q' -> fix q'
    | None -> q
  in
  fix q

let pp ppf q =
  let pp_neq ppf (a, b) = Fmt.pf ppf "%a <> %a" Term.pp a Term.pp b in
  Fmt.pf ppf "ans(%a) :- %a%s%a"
    Fmt.(list ~sep:(any ", ") Term.pp)
    q.head
    Fmt.(list ~sep:(any ", ") Atom.pp)
    q.body
    (if q.neqs = [] then "" else ", ")
    Fmt.(list ~sep:(any ", ") pp_neq)
    q.neqs
