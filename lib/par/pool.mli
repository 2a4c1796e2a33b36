(** A fixed-size pool of OCaml 5 domains.

    The pool owns [size - 1] worker domains; the domain that submits a batch
    participates in executing it, so a pool of size [n] runs up to [n] tasks
    concurrently while never spawning more than [n - 1] domains.  Domains are
    heavyweight (each carries a minor heap and participates in every GC), so
    pools are meant to be created once and reused — see {!Par} for the
    process-wide instance.

    Batches are synchronous: [parallel_map] returns only once every task of
    its batch has finished, results are delivered in input order, and the
    first (lowest-index) exception is re-raised with its original backtrace.

    Pool tasks must not themselves submit batches: worker domains executing a
    nested batch would deadlock waiting for queue slots their own pool holds.
    Nested submissions are detected and rejected with [Invalid_argument];
    callers that may run on either side use {!in_worker} (as {!Par.map} does)
    to fall back to sequential execution instead. *)

type t

(** [create n] spawns a pool of total size [max 1 n] ([n - 1] worker
    domains).  A pool of size 1 spawns nothing and runs every batch on the
    caller. *)
val create : int -> t

(** Total parallelism of the pool, including the submitting domain. *)
val size : t -> int

(** True inside a pool task (on a worker domain, or on the caller while it
    executes tasks of the batch it submitted). *)
val in_worker : unit -> bool

(** [parallel_map pool f xs] applies [f] to every element of [xs] using the
    pool, returning results in input order.  If one or more applications
    raise, the exception of the lowest-index element is re-raised after the
    whole batch has settled.  Raises [Invalid_argument] when called from
    inside a pool task. *)
val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list

(** [parallel_filter_map pool f xs]: as [parallel_map], keeping the [Some]
    results in input order. *)
val parallel_filter_map : t -> ('a -> 'b option) -> 'a list -> 'b list

(** Stop accepting work, wake the workers, and join them.  Idempotent.
    In-flight batches complete before the workers exit. *)
val shutdown : t -> unit

(** [with_pool n f] runs [f] over a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)
val with_pool : int -> (t -> 'a) -> 'a
