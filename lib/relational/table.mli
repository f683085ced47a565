(** Materialized relations: a schema plus [cardinality] rows.

    A table has two representations and keeps whichever it was built
    from:
    - boxed rows ({!of_rows}, {!create}): value arrays positionally
      aligned with the schema;
    - typed columns ({!of_columns}): one deterministic {!Column.t} per
      schema column, as {!Columnar} and the Indemics session produce.

    The other representation is built the first time something reads it
    ({!rows} on a column-built table, {!columns} on a row-built one) and
    then kept, so each conversion happens at most once per table.
    {!cardinality}, {!schema} and {!rename} never convert. Caching is
    safe across domains: two domains forcing the same table at once both
    get equal values.

    Tables carry these caches, so polymorphic equality, [compare] and
    [Hashtbl.hash] on a [t] (or on a record holding one) are
    meaningless: compare tables by {!schema} and {!rows}. *)

type row = Value.t array
type t

val create : Schema.t -> row list -> t
(** Validates every row's arity and (non-null) column types. *)

val of_rows : Schema.t -> row array -> t
(** As {!create}; the table keeps the array, which callers must not
    mutate afterwards. *)

val of_columns : Schema.t -> n_rows:int -> Column.t array -> t
(** A table over typed columns, one per schema column. Checks what
    {!of_rows} checks, when the table is built: arity, then every column
    deterministic with [n_rows] rows, then every cell of a column whose
    storage is boxed or not of the declared type, row-major, raising the
    same [Invalid_argument] as {!of_rows}. Typed storage of the declared
    type is accepted without reading its cells. The table keeps the
    columns, whose storage callers must not mutate afterwards. *)

val empty : Schema.t -> t
val schema : t -> Schema.t

val rows : t -> row array
(** The boxed rows, built once from the columns if the table was built
    from columns. The array is shared — callers must not mutate it. *)

val columns : t -> Column.t array
(** The typed columns, built once from the rows if the table was built
    from rows. Shared — callers must not mutate their storage. *)

type form = Rows | Columns | Both

val form : t -> form
(** Which representations are built so far: the one the table was built
    from, or [Both] once a caller has read the other. *)

val cardinality : t -> int
(** The row count; never converts. *)

val rename : t -> (string * string) list -> t
(** Relabel columns ({!Schema.rename}); shares both representations. *)

val get : t -> int -> string -> Value.t
(** [get t i col] is row [i]'s value in column [col]. *)

val column : t -> string -> Value.t array
val column_floats : t -> string -> float array
(** Numeric column as floats, skipping no rows; raises on non-numeric. *)

val iter : (row -> unit) -> t -> unit
val append : t -> t -> t
(** Schemas must be equal. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Render as an aligned text table (default first 20 rows). *)
