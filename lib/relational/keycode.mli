(** Packed key codes: unboxed composite hash and sort keys read directly
    from columnar storage.

    Every keyed operator used to realize one boxed [Value.t list] per
    row ([Array.to_list] + a {!Value.Tbl} probe) just to ask "same key?"
    This module encodes a composite key into an unboxed form instead —
    one immediate [int] word per row when the key fits (ranged ints,
    bools, dictionary string codes, a null sentinel), a packed [Bytes.t]
    otherwise (float bit images, wide ints) — with the encoding exactly
    {e injective} with respect to {!Value.Key} equality:

    - [Int i] and [Float f] are one key when numerically equal under
      [Float.compare], so mixed numeric components encode both through
      the same canonical float image (ints are validated to have an
      exact image, else the encoder refuses);
    - every NaN payload is one key ([Float.compare nan nan = 0]): all
      NaNs collapse to one image;
    - [-0.0] and [0.0] are one key ([Float.compare (-0.) 0. = 0]): both
      collapse to the [+0.0] image;
    - [Null] is a key distinct from every value (its own sentinel code);
    - string dictionary codes are {e per column}, so multi-column
      encodings (join sides) translate through a shared dictionary
      rather than comparing raw codes.

    Anything the encoder cannot represent injectively — boxed [Vvalues]
    storage, uncertain (non-det) columns, int magnitudes whose float
    image is inexact next to float-typed mates — makes {!of_columns}
    return [None].

    This module is also the one place where keyed operators decide how
    to key: {!group_ids} and {!join_pairs} build the encoder over the
    key columns they are given and run the packed table when it
    accepts them, the boxed [Value.Tbl] algorithm otherwise. Data the
    encoder refuses therefore lands on the boxed path by itself; a
    caller that wants the boxed path as an oracle passes
    [~packed:false]. [Columnar], [Bundle] and [Mapred.Reljob] have no
    keying code of their own. *)

type t
(** An encoder over one or more aligned sets of key columns ("sides"):
    group/distinct pass one side, a join passes the build and probe
    sides so component encodings (int offsets, shared string
    dictionaries) agree across both. *)

val of_columns : Column.t array list -> t option
(** [of_columns sides] analyses the key columns (all sides must list the
    same number of components; component [c] pairs [sides.(s).(c)]
    across sides). Involves one unboxed scan per int component (value
    range, float-image exactness) and a dictionary merge per string
    component. [None] when any component cannot be encoded injectively,
    and for an empty component list ({!group_ids} and {!join_pairs}
    handle key-less calls themselves). *)

type keys =
  | Kint of int array  (** one immediate word per row *)
  | Kbytes of bytes array  (** packed tagged bytes per row *)

type coded = {
  keys : keys;
  null_rows : bool array option;
      (** [Some flags]: [flags.(i)] iff any component of row [i] is
          Null — the rows a join must skip. [None] = no nulls anywhere
          in the side's key columns. *)
}

val encode : ?pool:Mde_par.Pool.t -> t -> side:int -> coded
(** Encode every row of one side. Row-chunked over the pool when given;
    each row's slots are disjoint, so the pooled fill is bit-identical
    to the sequential one. A single no-null int component is returned
    zero-copy (the column's own storage). *)

(** {2 Group ids and join pairs}

    The keyed core of group-by, distinct, equi-join and the MapReduce
    shuffle. With [~packed:true] and key columns {!of_columns} accepts,
    packed codes hash through an open-addressing table (linear probing,
    multiplicative hashing); otherwise boxed [Value.t list] keys hash
    through {!Value.Tbl}. Both give the same answer, so [~packed:false]
    is the oracle for [~packed:true]. *)

type groups = {
  ids : int array;  (** [ids.(i)]: row [i]'s dense group id, in first-seen order *)
  firsts : int array;  (** [firsts.(g)]: the first row of group [g] *)
}

val group_ids :
  ?pool:Mde_par.Pool.t -> packed:bool -> n_rows:int -> Column.t array -> groups
(** [group_ids ~packed ~n_rows cols] groups the rows of the key columns
    [cols] (deterministic, [n_rows] rows each) by {!Value.Key}
    equality. Null is an ordinary key here. With no key columns every
    row is in one group, and an empty input has no groups. [?pool]
    chunks the key encoding; the id assignment is sequential. *)

val join_pairs :
  ?pool:Mde_par.Pool.t ->
  packed:bool ->
  build_rows:int ->
  probe_rows:int ->
  Column.t array ->
  Column.t array ->
  int array * int array
(** [join_pairs ~packed ~build_rows ~probe_rows build probe] is the
    equi-join's match list [(probe_idx, build_idx)]: every pair of rows
    whose keys are {!Value.Key}-equal, in probe order and, within one
    probe row, in build order — {!Algebra.equi_join}'s output order. A
    key with any Null component never matches. With no key columns
    every pair matches. The build and probe sides must have the same
    number of key columns, else [Invalid_argument]. [?pool] chunks the
    encoding and the probe; per-chunk buffers concatenate in row order,
    so the pairs do not depend on the chunking. *)

(** {2 Normalized sort keys} *)

val sort_perm : ?descending:bool -> Column.t array -> n_rows:int -> int array option
(** The stable multi-key sort permutation, by LSD radix sort instead of
    a per-column comparator chain. Each component maps
    order-preservingly onto unsigned image words: Null lowest, ints and
    bools offset from their minimum, strings by dictionary {e rank},
    floats by a class digit (Null < NaN < number) above their
    sign-flipped bits with [-0.] read as [0.]. Adjacent words fuse into
    keys of at most 63 bits, and one stable counting-sort pass runs per
    digit of at most 11 bits, least significant first, so equal keys
    keep their input order. [descending] complements each image within
    its width: key order reverses, tie order does not, exactly like
    {!Algebra.order_by}. [None] only when a component has no image
    (boxed storage or a non-det column); the caller then keeps its
    comparator path. *)
