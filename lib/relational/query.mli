(** A pipeline-style query builder, giving the SQL-ish surface used by
    Indemics intervention scripts (Algorithm 1) and the MCDB examples:

    {[
      Query.of_table person
      |> Query.where Expr.(col "age" <= int 4)
      |> Query.group ~keys:[] ~aggs:[ ("n", Algebra.Count) ]
      |> Query.run
    ]}

    A thin layer over {!Columnar}: each combinator calls its columnar
    twin, so a pipeline over a column-built table (the Indemics session's)
    never boxes a row until a caller reads {!Table.rows} of the result.
    Results equal the {!Algebra} pipeline's bit for bit; the row algebra
    is the test oracle. Left joins are {!Algebra.equi_join}'s. *)

type t = Columnar.t

val of_table : Table.t -> t
val where : Expr.t -> t -> t
val select_cols : string list -> t -> t
val compute : (string * Value.ty * Expr.t) list -> t -> t

val rename_cols : (string * string) list -> t -> t
(** O(1): relabels the columns without copying them. *)

val join : on:(string * string) list -> Table.t -> t -> t
(** Inner join of the pipeline (left side, probe) with a table (right
    side, build). *)

val group : keys:string list -> aggs:(string * Algebra.aggregate) list -> t -> t
val sort : ?descending:bool -> string list -> t -> t
val dedup : t -> t
val take : int -> t -> t

val run : t -> Table.t
(** The result as a column-built table ({!Columnar.to_table}). *)

val scalar : t -> Value.t
(** Run and return the single value of a 1×1 result.
    Raises [Invalid_argument] otherwise. *)

val count : t -> int
(** Cardinality of the result. *)
