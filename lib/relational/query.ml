type t = Columnar.t

let of_table = Columnar.of_table
let where pred q = Columnar.select pred q
let select_cols names q = Columnar.project names q
let compute defs q = Columnar.extend defs q
let rename_cols renames q = Columnar.of_table (Table.rename (Columnar.to_table q) renames)
let join ~on right q = Columnar.equi_join ~on q (Columnar.of_table right)
let group ~keys ~aggs q = Columnar.group_by ~keys ~aggs q
let sort ?descending names q = Columnar.order_by ?descending names q
let dedup q = Columnar.distinct q
let take n q = Columnar.limit n q
let run = Columnar.to_table

let scalar q =
  let t = run q in
  if Table.cardinality t = 1 && Schema.arity (Table.schema t) = 1 then
    (Table.rows t).(0).(0)
  else
    invalid_arg
      (Printf.sprintf "Query.scalar: result is %dx%d, expected 1x1"
         (Table.cardinality t)
         (Schema.arity (Table.schema t)))

(* Through [run], so a result that would not validate raises here too. *)
let count q = Table.cardinality (run q)
