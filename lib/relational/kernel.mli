(** Block kernels: {!Mde_relational.Expr} trees compiled to typed sweeps
    over columnar storage ({!Column}).

    A compiled {!node} is evaluated one {e block} at a time, never one
    cell at a time. A block is a run of whole rows — {!block_size} slots,
    i.e. [max 1 (block_size / reps)] rows at [reps] slots per row — and
    evaluating it fills one typed vector per operator node in a single
    tight loop: ints in [int array]s, floats in float64 bigarrays, bools
    as 0/1 bytes, strings as the dictionary's own string values. Nothing
    is boxed. Leaves read the column's storage in place (the block is a
    window on the int array or bigarray at the block's first slot);
    deterministic operands of an uncertain node are evaluated once per
    row and broadcast across the repetitions.

    {b Nulls.} A node that can be null carries a second byte vector, 1
    where the slot is Null; the value in a null slot is arbitrary. A
    node that can never be null has no such vector, and its parents skip
    the null work entirely. Comparisons, [And]/[Or]/[Not] and [Is_null]
    are never null ([eval_bool] and [compare_values] semantics: a Null
    operand makes a comparison false and counts as false in a
    connective).

    {b Totality.} Every compiled node is total: integer arithmetic wraps,
    float arithmetic yields infinities and NaN, division is float
    division, and string reads of a Null code yield a dummy. So a block
    is evaluated in full — both branches of an [If], the cells a
    presence mask or a selection will drop — without a per-slot test,
    and the consumer applies the mask afterwards.

    {b Scratch.} Each {!sweep} instantiates its nodes once per pool chunk
    (a contiguous run of blocks), with scratch sized to the smaller of
    the table and one block, and reuses it for every block of the run:
    a sweep allocates O(nodes × block) bytes per chunk, not per row.
    Blocks never share a row, so chunks write disjoint rows of any
    output — pooled sweeps are bit-identical to sequential ones.

    {b Coverage.} Column reads of typed storage, literals (except [Lit
    Null]), [+ - *] (int when both sides are int, float otherwise, as
    the interpreter's [arith]), [/] (always float), [Neg], comparisons
    between two ints ([compare] on ints), mixed numerics
    ([Float.compare], as [Value.compare]: NaN below everything, NaN
    equal to NaN, [-0.] equal to [0.]), two strings ([String.compare]
    on the decoded values), or two bools; [And]/[Or]/[Not] over
    booleans; [Is_null]; [If] with a boolean condition and same-kind
    branches. Everything else — boxed
    fallback columns, [Lit Null], cross-kind comparisons, mixed-kind
    [If] branches — makes {!compile} return [None] and the caller falls
    back to the interpreter, which by construction gives the same answer
    (or raises the same error). {!Mde_relational.Expr.typeof} is the
    static side of this contract. *)

type env
(** Named compiled columns: the base bundle columns plus any computed
    nodes a fused plan has introduced. *)

type node
(** A compiled expression. *)

type kind = Kint | Kfloat | Kbool | Kstr

val env_of_columns : Schema.t -> reps:int -> Column.t array -> env
val env_extend : env -> (string * node) list -> env

val compile : env -> Expr.t -> node option
(** [None] = not covered; evaluate with {!Expr.eval} instead. *)

val kind : node -> kind

val node_unc : node -> bool
(** Whether the node reads any uncertain column: [false] means every
    repetition yields the same value, so the node is evaluated once per
    row. *)

val truth : node -> node option
(** The predicate view with [eval_bool] semantics (Null counts false):
    a never-null boolean node; [None] unless the node is boolean. *)

val numeric : node -> node option
(** The [Value.to_float] image: int and bool nodes convert, float nodes
    pass through, nulls are kept; [None] for string nodes. *)

(** {1 Sweeps} *)

val block_size : int
(** Slots per block (1024); a block never splits a row. *)

val block_rows : reps:int -> int
(** Rows per block at [reps] slots per row: [max 1 (block_size / reps)]. *)

type 'a blk = private { data : 'a; mutable off : int }
(** A node's vector for the current block: slot [k] of the block is
    element [off + k] of [data]. *)

type vec =
  | Floats of Column.floats blk
  | Ints of int array blk
  | Bools of Bytes.t blk  (** 0/1 bytes *)
  | Strings of string array blk

type inst = private {
  run : int -> int -> unit;
  vec : vec;
  nulls : Bytes.t blk option;  (** 1 = Null; [None] = never null *)
  stride : int;  (** slots per row: [reps] for uncertain nodes, else 1 *)
}
(** A node instantiated with its own scratch. After the sweep runs a
    block of rows [[i0, i1)], row [i]'s repetition [r] sits at slot
    [(i - i0) * stride + r] of [vec] (and of [nulls]). *)

val float_block : inst -> Column.floats blk
val int_block : inst -> int array blk
val bool_block : inst -> Bytes.t blk
(** Typed views of an instance's vector; [Invalid_argument] on a node of
    another kind. *)

val sweep :
  ?pool:Mde_par.Pool.t ->
  site:string ->
  rows:int ->
  reps:int ->
  node array ->
  (inst array -> int -> int -> unit) ->
  unit
(** [sweep ~site ~rows ~reps nodes f] evaluates [nodes] (compiled in an
    env of [reps] repetitions) over [rows] rows, block by block. For
    each pool chunk, [f insts] is applied once to fresh instances of the
    nodes; the function it returns is called as [g i0 i1] after every
    node has run block [[i0, i1)]. Blocks of one chunk come in row
    order; with [?pool], chunks run in parallel, so [g] must write only
    state owned by its rows. *)

val materialize : ?pool:Mde_par.Pool.t -> rows:int -> reps:int -> node -> Column.t
(** Evaluate a node into a typed column (deterministic iff [not
    (node_unc node)]), each block written straight into the output.
    Null slots hold [nan] (floats) or 0, with a null mask only when some
    slot is Null. Block-chunked over the pool when given (bit-identical
    to the sequential fill); string nodes build their dictionary
    sequentially. *)
