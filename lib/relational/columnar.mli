(** The columnar relational engine: {!Algebra}'s operators over typed
    column storage ({!Column}) with {!Kernel}-compiled expressions.

    A value of type {!t} is the deterministic reps=1 specialization of
    the tuple-bundle layout: one typed column per schema column (floats
    in a float64 bigarray, ints/bools unboxed, strings
    dictionary-coded), nulls in a packed {!Column.Bitset}. Operators
    come in two implementations, selected per call like the tuple-bundle
    engine's: [`Kernel] (default) compiles predicates, computed columns
    and aggregate sources to block kernels and falls back per
    expression when the compiler does not cover one; [`Interpreter]
    forces the row-at-a-time fallback everywhere and is the bit-identity
    oracle. Under [`Kernel], every fallback is counted on
    [mde_relational_fallback_total{op}] ([op] = [select], [extend] or
    [group_by]) when a live {!Mde_obs} registry is installed.

    The contract, property-tested in [test/test_relational.ml]: every
    operator returns exactly what its {!Algebra} twin returns on the
    same input — same rows in the same order with bit-identical floats
    — under either implementation, with or without a pool. Group
    aggregates feed rows in row order (float sums are order-sensitive),
    joins emit probe-order × build-order pairs, sorts are stable with
    the same [Value.compare] key order. *)

type t

type impl = Impl.t
(** = [[ `Kernel | `Interpreter ]]; the shared selector ({!Impl.t}). *)

val of_table : Table.t -> t
(** A view of the table's typed columns ({!Table.columns}): O(1) once
    they are built, and built at most once per table. *)

val to_table : t -> Table.t
(** {!Table.of_columns} over the result: no row is boxed until a caller
    reads {!Table.rows}. Boxed or mistyped columns (an extend whose
    expression contradicts its declared type) are checked cell by cell
    and raise as {!Algebra} does. *)

val schema : t -> Schema.t
val row_count : t -> int

val select : ?pool:Mde_par.Pool.t -> ?impl:impl -> Expr.t -> t -> t
(** σ, preserving row order: the predicate's block sweep writes one flag
    byte per row, and the kept rows are gathered. With [?pool] the
    blocks are evaluated in parallel (bit-identical: each row's flag is
    independent). *)

val project : string list -> t -> t
(** π onto existing columns — O(1) per column, nothing is copied. *)

val extend : ?pool:Mde_par.Pool.t -> ?impl:impl -> (string * Value.ty * Expr.t) list -> t -> t
(** Append computed columns; every defining expression reads the input
    schema (not columns added by earlier defs), as {!Algebra.extend}. *)

val equi_join :
  ?pool:Mde_par.Pool.t -> ?packed:bool -> on:(string * string) list -> t -> t -> t
(** Inner hash join, build side right, probe side left — the plan
    executor's join. Row order and null-key behavior match
    {!Algebra.equi_join}: the pairs come from {!Keycode.join_pairs},
    then both sides are gathered. [packed] (default [true]) hands
    Keycode the encoder, which it uses when the key columns encode;
    [~packed:false] selects Keycode's boxed path, the oracle. With
    [?pool] the key encoding and the probe are row-chunked in parallel
    and the output is bit-identical whatever the chunking. *)

val group_by :
  ?pool:Mde_par.Pool.t ->
  ?packed:bool ->
  ?impl:impl ->
  keys:string list ->
  aggs:(string * Algebra.aggregate) list ->
  t ->
  t
(** Grouped aggregation with {!Algebra.group_by}'s exact semantics:
    first-seen group order, NaN keys collapse to one group, [keys = []]
    yields one global row even on empty input. Under [`Kernel] every
    aggregate accumulates unboxed per-group state from its argument's
    block sweep — Min/Max too, under [Value.compare]'s order with the
    first of equals kept. All aggregates compile before any runs; if one
    does not (a string argument among them, which the oracle rejects
    from [Value.to_float]), the whole call drops to the row oracle and
    counts as a fallback.
    Groups come from {!Keycode.group_ids} ([packed] as in
    {!equi_join}); keys are gathered from each group's first row. With
    [?pool] the key encoding is row-chunked in parallel and the
    aggregates run side by side, each still accumulating in row order,
    so pooled results are bit-identical to sequential ones. *)

val order_by : ?descending:bool -> ?packed:bool -> string list -> t -> t
(** Stable sort. With [packed] (default [true]) and every key column
    typed and deterministic, a radix sort over order-preserving
    {!Keycode.sort_perm} images; otherwise typed per-column comparators
    agreeing with [Value.compare]. Both produce the same permutation,
    so [~packed:false] is the oracle. *)

val distinct : ?pool:Mde_par.Pool.t -> ?packed:bool -> t -> t
(** First occurrence of each distinct row, in row order: the first row
    of each {!Keycode.group_ids} group over all columns ([packed] as in
    {!equi_join}). *)

val limit : int -> t -> t
(** Raises [Invalid_argument] on a negative count. *)
