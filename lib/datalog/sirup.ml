(* Single-rule datalog programs (sirups).  Gottlob and Papadimitriou [19]
   showed that deciding whether a sirup (one ground fact, one rule) derives a
   goal fact is EXPTIME-complete; Theorem 4.1(2) reduces this problem to
   SWS(CQ, UCQ) non-emptiness for its lower bound.  This module provides the
   sirup shape, the goal-acceptance decision by bottom-up evaluation, and a
   scalable family of hard-ish instances for the Table 1 bench. *)

module Term = Relational.Term
module Atom = Relational.Atom
module Value = Relational.Value
module Tuple = Relational.Tuple
module Relation = Relational.Relation
module Database = Relational.Database

type t = {
  fact : string * Tuple.t; (* the single ground fact *)
  rule : Dl.rule;          (* the single recursive rule *)
  goal : string * Tuple.t; (* the goal fact to derive *)
}

let make ~fact ~rule ~goal = { fact; rule; goal }

let program s = Dl.make [ s.rule ]

let edb_of s ~schema =
  let name, tuple = s.fact in
  Database.add_tuple name tuple (Database.empty schema)

let accepts s =
  let schema =
    let open Relational in
    let name_f, tup_f = s.fact and name_g, tup_g = s.goal in
    Schema.union
      (Dl.schema_of (program s))
      (Schema.of_list
         [ (name_f, Tuple.arity tup_f); (name_g, Tuple.arity tup_g) ])
  in
  let db = Seminaive.eval (program s) (edb_of s ~schema) in
  let name, tuple = s.goal in
  Relation.mem tuple (Database.find name db)

(* A scalable instance family: transitive closure by doubling over a cycle of
   size n, plus an EDB edge relation folded into the single rule via the one
   permitted ground fact.  path(x,y) :- e(x,z), path... needs two rules in
   textbook form; the sirup trick packs base and step into one rule by
   deriving from a seed fact.  Here we use the standard "same-generation"
   style single rule:

       sg(x, y) :- e(x, u), sg(u, v), e(y, v)

   with seed sg(a, a); goal sg(b, b) for chosen nodes over a random graph.
   Runtime grows with graph size: the Table 1 EXPTIME-cell workload. *)
let same_generation rng ~num_nodes ~num_edges =
  let e u v =
    Atom.make "e" [ u; v ]
  in
  let rule =
    Dl.plain_rule "sg"
      [ Term.var "x"; Term.var "y" ]
      [
        e (Term.var "x") (Term.var "u");
        Atom.make "sg" [ Term.var "u"; Term.var "v" ];
        e (Term.var "y") (Term.var "v");
      ]
  in
  let node () = Value.int (Random.State.int rng num_nodes) in
  let edges =
    List.init num_edges (fun _ -> (node (), node ()))
  in
  let seed = Value.int 0 in
  let goal_node = Value.int (num_nodes - 1) in
  let s =
    make
      ~fact:("sg", Tuple.of_list [ seed; seed ])
      ~rule
      ~goal:("sg", Tuple.of_list [ goal_node; goal_node ])
  in
  (s, edges)

(* Evaluate a same-generation instance together with its edge EDB. *)
let accepts_with_edges (s, edges) =
  let open Relational in
  let schema = Schema.of_list [ ("e", 2); ("sg", 2) ] in
  let db =
    List.fold_left
      (fun db (u, v) -> Database.add_tuple "e" (Tuple.of_list [ u; v ]) db)
      (edb_of s ~schema) edges
  in
  let result = Seminaive.eval (program s) db in
  let name, tuple = s.goal in
  Relation.mem tuple (Database.find name result)
