(* Bottom-up datalog evaluation: the semi-naive fixpoint, which joins each
   rule once per body position against the per-round delta.  The naive
   fixpoint that re-derives everything each round is its test oracle. *)

module Atom = Relational.Atom
module Term = Relational.Term
module Cq = Relational.Cq
module Relation = Relational.Relation
module Database = Relational.Database
module Schema = Relational.Schema
module Subst = Relational.Subst
module Tuple = Relational.Tuple

module Value = Relational.Value

module Smap = Map.Make (String)

(* Evaluate one rule body against [db] and return the derived head tuples,
   in interned form.  Staying at the id level matters for the fixpoint: the
   old value-level path re-interned every derived tuple three times (the
   [mem] check, the database [add] and the delta [add]), and those hashtable
   probes dominated the transitive-closure benchmarks. *)
let find_id_exn x subst =
  match Subst.find_id x subst with
  | Some id -> id
  | None -> invalid_arg ("derive_rule: unbound head variable " ^ x)

let derive_rule db (r : Dl.rule) =
  let head_cq_vars =
    (* fetch all body variables so Skolem heads can be built from them *)
    List.concat_map Atom.vars r.body |> List.sort_uniq String.compare
  in
  let cq =
    Cq.make ~head:(List.map Term.var head_cq_vars) ~body:r.body ()
  in
  let substs = Cq.eval_substs cq db in
  (* Constants are interned once per rule evaluation, not once per subst. *)
  let compiled =
    List.map
      (function
        | Dl.T (Term.Const v) -> `Id (Value.id v)
        | Dl.T (Term.Var x) -> `Var x
        | Dl.Skolem (f, xs) -> `Skolem (f, xs))
      r.head_args
  in
  List.map
    (fun subst ->
      Repr.Ituple.of_list
        (List.map
           (function
             | `Id id -> id
             | `Var x -> find_id_exn x subst
             | `Skolem (f, xs) ->
               (* Skolem terms mint genuinely new values, so this is the one
                  place the fixpoint still touches the interner. *)
               Value.id
                 (Dl.skolem_value f
                    (List.map (fun x -> Value.of_id (find_id_exn x subst)) xs)))
           compiled))
    substs

(* Semi-naive: per round, evaluate each rule once per body position with that
   position restricted to the previous round's delta (via a shadow
   "relation@delta" renaming). *)
let delta_name n = n ^ "@delta"

let eval program edb =
  let schema0 = Schema.union (Dl.schema_of program) (Database.schema edb) in
  let idb = Dl.idb_relations program in
  let schema =
    List.fold_left
      (fun s n -> Schema.add (delta_name n) (Schema.arity_exn n schema0) s)
      schema0 idb
  in
  (* Deltas are a string-keyed map, so per-tuple bookkeeping is O(log r) in
     the number of changed relations instead of the O(r) assoc-list scans
     (which made every round quadratic in the delta size). *)
  let with_deltas db deltas =
    Smap.fold (fun n r db -> Database.set (delta_name n) r db) deltas db
  in
  let start =
    Database.fold (fun n r db -> Database.set n r db) edb (Database.empty schema)
  in
  (* Round zero: plain evaluation of every rule on the EDB. *)
  let initial_facts rule = derive_rule start rule in
  let add_facts (db, deltas) rel tuples =
    List.fold_left
      (fun (db, deltas) it ->
        let current = Database.find rel db in
        if Relation.mem_interned it current then (db, deltas)
        else
          let deltas =
            Smap.update rel
              (function
                | None ->
                  Some
                    (Relation.add_interned it
                       (Relation.empty (Repr.Ituple.arity it)))
                | Some old -> Some (Relation.add_interned it old))
              deltas
          in
          (Database.set rel (Relation.add_interned it current) db, deltas))
      (db, deltas) tuples
  in
  let db, deltas =
    List.fold_left
      (fun acc rule -> add_facts acc rule.Dl.head_rel (initial_facts rule))
      (start, Smap.empty) (Dl.rules program)
  in
  let rec round db deltas =
    if Smap.is_empty deltas then db
    else begin
      let db_with = with_deltas db deltas in
      let db', deltas' =
        List.fold_left
          (fun acc rule ->
            (* one variant per body position mentioning a changed relation *)
            let variants =
              List.mapi
                (fun i (a : Atom.t) ->
                  if Smap.mem a.rel deltas then
                    Some
                      {
                        rule with
                        Dl.body =
                          List.mapi
                            (fun j (b : Atom.t) ->
                              if i = j then { b with rel = delta_name b.rel }
                              else b)
                            rule.Dl.body;
                      }
                  else None)
                rule.Dl.body
              |> List.filter_map Fun.id
            in
            List.fold_left
              (fun acc variant ->
                add_facts acc rule.Dl.head_rel
                  (derive_rule db_with variant))
              acc variants)
          (db, Smap.empty) (Dl.rules program)
      in
      round db' deltas'
    end
  in
  let result = round db deltas in
  (* hide the shadow delta relations in the result *)
  Database.fold
    (fun n r acc ->
      if String.length n > 6 && String.sub n (String.length n - 6) 6 = "@delta"
      then acc
      else Database.set n r acc)
    result
    (Database.empty schema0)

(* Answer a query (an IDB relation name) and drop Skolem-carrying tuples:
   certain answers only. *)
let certain_answers program edb goal =
  let db = eval program edb in
  Relation.filter
    (fun t -> not (Tuple.exists Dl.is_skolem_value t))
    (Database.find goal db)
