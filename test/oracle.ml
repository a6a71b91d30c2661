(* Reference evaluators for the agreement properties: each is restated
   from its definition at the value level, independently of [Cq]'s join
   and of [Seminaive]'s delta bookkeeping, and kept as slow and plain as
   the definition allows. *)

module R = Relational

(* Nested-loop join: scan the relations in textual atom order, extending
   one substitution per matching tuple, then keep the complete
   substitutions that satisfy every inequality. *)
let substs body neqs db =
  let rec go env = function
    | [] -> [ env ]
    | (a : R.Atom.t) :: rest ->
      List.concat_map
        (fun tuple ->
          let rec unify env i = function
            | [] -> Some env
            | R.Term.Const v :: tl ->
              if R.Value.equal v (R.Tuple.get tuple i) then unify env (i + 1) tl
              else None
            | R.Term.Var x :: tl ->
              Option.bind (R.Subst.extend x (R.Tuple.get tuple i) env)
                (fun env -> unify env (i + 1) tl)
          in
          match unify env 0 a.args with Some env -> go env rest | None -> [])
        (R.Relation.to_list (R.Database.find a.rel db))
  in
  go R.Subst.empty body
  |> List.filter (fun env ->
         List.for_all
           (fun (a, b) ->
             not (R.Value.equal (R.Subst.apply_term_exn env a)
                    (R.Subst.apply_term_exn env b)))
           neqs)

let cq_eval (q : R.Cq.t) db =
  List.fold_left
    (fun rel env ->
      R.Relation.add
        (R.Tuple.of_list (List.map (R.Subst.apply_term_exn env) q.head))
        rel)
    (R.Relation.empty (R.Cq.head_arity q))
    (substs q.body q.neqs db)

(* Naive datalog fixpoint: every round re-derives every rule over the
   whole database, until a round adds nothing. *)
let datalog_eval program edb =
  let module Dl = Datalog.Dl in
  let schema = R.Schema.union (Dl.schema_of program) (R.Database.schema edb) in
  let head_value env = function
    | Dl.T t -> R.Subst.apply_term_exn env t
    | Dl.Skolem (f, xs) ->
      Dl.skolem_value f
        (List.map (fun x -> R.Subst.apply_term_exn env (R.Term.var x)) xs)
  in
  let derive db (r : Dl.rule) =
    List.fold_left
      (fun (db, grew) env ->
        let t = R.Tuple.of_list (List.map (head_value env) r.head_args) in
        let rel = R.Database.find r.head_rel db in
        if R.Relation.mem t rel then (db, grew)
        else (R.Database.set r.head_rel (R.Relation.add t rel) db, true))
      (db, false) (substs r.body [] db)
  in
  let rec round db =
    let db, grew =
      List.fold_left
        (fun (db, grew) r ->
          let db, g = derive db r in
          (db, grew || g))
        (db, false) (Dl.rules program)
    in
    if grew then round db else db
  in
  round (R.Database.fold R.Database.set edb (R.Database.empty schema))
