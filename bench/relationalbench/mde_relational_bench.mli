(** The unified-substrate relational benchmark, shared by
    [bench/main -- --relational] and [mde_cli relational-bench] so both
    record the same experiment.

    One randomized measurement table ([rows] rows: float key, small int
    group, float value), one fixed pipeline (conjunctive predicate,
    derived risk column, Count/Sum/Avg/Max group aggregates), three
    executions of the identical query:

    - {e row algebra}: the legacy row-at-a-time
      {!Mde.Relational.Algebra} operators — the bit-identity oracle;
    - {e interpreter}: the columnar engine forced through its boxed
      row-fallback everywhere ([~impl:`Interpreter]);
    - {e kernel}: the same columnar pipeline through compiled typed
      kernels ([~impl:`Kernel]).

    Each stage is timed separately with its [Gc.allocated_bytes] delta.
    All three engines must produce bit-identical group tables
    ({!result.identical}, checked by {!gate}). *)

type timing = { seconds : float; alloc_bytes : float }

type path = {
  select_t : timing;
  extend_t : timing;
  group_t : timing;
}

(** {2 Packed key codes}

    The keyed-operator benchmark, run by {!run} after the pipeline:
    group_by / equi_join / distinct / order_by over a star-shaped table
    (dictionary-coded string dimension key + small int bucket), each run
    through the packed {!Keycode} path (the default), the boxed path
    ([~packed:false]) and — with [domains] > 1, for the operators that
    take a pool — the pooled packed path. All paths must produce
    bit-identical tables. *)

type keyed_op = {
  packed_t : timing;
  boxed_t : timing;
  pooled_t : timing option;  (** [None] when [domains] = 1 or unpooled *)
}

type keyed_result = {
  krows : int;
  group_op : keyed_op;
  join_op : keyed_op;
  distinct_op : keyed_op;
  order_op : keyed_op;
  kidentical : bool;  (** packed == boxed == pooled, bit for bit *)
}

type result = {
  rows : int;
  selected : int;  (** rows the select keeps: what extend and group_by read *)
  row_path : path;  (** legacy row {!Mde.Relational.Algebra} *)
  interp_path : path;  (** columnar, [~impl:`Interpreter] *)
  kernel_path : path;  (** columnar, [~impl:`Kernel] *)
  kernel_group_pooled : timing option;
      (** the kernel group_by stage on the domain pool (best of two);
          [None] without one. The pipeline's own group_by is sequential,
          as the interpreter's is. *)
  identical : bool;  (** all three final tables bit-identical *)
  keyed : keyed_result;  (** the keyed-operator race on the same row count *)
}

val run : ?domains:int -> rows:int -> seed:int -> unit -> result
(** Execute the pipeline race, then the keyed-operator race. [domains]
    > 1 runs the kernel select/extend stages, a separately timed pooled
    kernel group_by, and the pooled keyed operators over a shared domain
    pool; results stay bit-identical. *)

val gate : result -> (unit, string) Result.t
(** The acceptance gate shared by the bench harness, [mde_cli
    relational-bench] and CI: the three pipeline engines bit-identical,
    the kernel pipeline at least 3x the interpreter's throughput, the
    kernel select, extend and group_by stages each under their bound on
    bytes allocated per input row plus a fixed per-call allowance
    ([Gc.allocated_bytes], deterministic where timings on a small runner
    are not), the
    packed, boxed and pooled keyed operators bit-identical, packed
    group_by and equi_join each at least 2x their boxed twins, and the
    radix order_by at least 8x its comparator twin. [Error] carries a
    one-line reason. *)

val print : result -> unit
(** Human-readable tables for both races on stdout. *)

val emit : ?file:string -> ?domains:int -> seed:int -> result -> string
(** Append a "relational-columnar" and a "relational-keycode" entry to
    [BENCH_relational.json] (via {!Mde_bench_emit}); returns the path
    written. The columnar entry carries, per path and stage, the rows
    read per second ([<path>_<stage>_cells_per_s]) and the bytes
    allocated per input row ([<path>_<stage>_alloc_bytes_per_row]). *)
