(* Duschka-Genesereth inverse rules [14]: given CQ view definitions and view
   extensions, reconstruct (Skolemized) base relations and answer queries
   over them — the maximally-contained rewriting used in the proof of
   Corollary 5.2 to turn a UC2RPQ rewriting candidate into an equivalent one.

   For a view  V(x̄) :- A1, ..., Am  the inverse rules are, for each Ai,

       Ai[σ] :- V(x̄)

   where σ replaces every existential variable of the view body by a Skolem
   term over x̄. *)

module Term = Relational.Term
module Atom = Relational.Atom
module Cq = Relational.Cq
module Relation = Relational.Relation
module Database = Relational.Database
module Schema = Relational.Schema

type view = {
  name : string;
  definition : Cq.t; (* over base relations; head variables = view output *)
}

let view name definition =
  List.iter
    (function
      | Term.Var _ -> ()
      | Term.Const _ ->
        invalid_arg "Inverse_rules.view: constant in view head unsupported")
    definition.Cq.head;
  { name; definition }

let skolem_prefix v = Printf.sprintf "sk_%s" v.name

(* The inverse rules of one view. *)
let invert v =
  let head_vars =
    List.filter_map
      (function Term.Var x -> Some x | Term.Const _ -> None)
      v.definition.Cq.head
  in
  let body_atom = Atom.make v.name v.definition.Cq.head in
  (* one Skolem function per existential variable of the view — shared
     across body atoms, or the reconstructed joins fall apart *)
  let hterm = function
    | Term.Var x when List.mem x head_vars -> Dl.T (Term.var x)
    | Term.Var x -> Dl.Skolem (Printf.sprintf "%s_%s" (skolem_prefix v) x, head_vars)
    | Term.Const c -> Dl.T (Term.const c)
  in
  List.map
    (fun (a : Atom.t) -> Dl.rule a.rel (List.map hterm a.args) [ body_atom ])
    v.definition.Cq.body

let program views = Dl.make (List.concat_map invert views)

(* Certain answers of [query] (a CQ over base relations) given only the view
   extensions: run the inverse rules bottom-up to repopulate (Skolemized)
   base relations, evaluate the query, and keep Skolem-free tuples. *)
let certain_answers ~views ~extensions query =
  let inv = program views in
  let goal_rule =
    Dl.plain_rule "@goal" query.Cq.head query.Cq.body
  in
  let prog = Dl.make (Dl.rules inv @ [ goal_rule ]) in
  Seminaive.certain_answers prog extensions "@goal"

(* The view extensions obtained by materializing each view over a concrete
   base database: used by tests to validate maximal containment. *)
let materialize ~views base =
  let schema =
    List.fold_left
      (fun s v -> Schema.add v.name (Cq.head_arity v.definition) s)
      Schema.empty views
  in
  List.fold_left
    (fun db v -> Database.set v.name (Cq.eval v.definition base) db)
    (Database.empty schema) views
