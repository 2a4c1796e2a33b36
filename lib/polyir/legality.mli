(** Polyhedral legality verification: prove that a transformed program
    preserves every data dependence of the specification.

    For each ordered statement pair and each conflicting access pair
    (RAW, WAR, WAW), the checker builds the set of instance pairs that
    touch the same array element, executed source-first under the
    *original* (structural) schedule but sink-first under the
    *transformed* schedule.  The transformation is legal iff every such
    flip set is integer-empty.  This is the "ensuring the correctness of
    the code" guarantee of Section V-B, made effective.

    A flip problem is the dimension tuple, the two domains with the
    same-element equalities, and the original- and transformed-order
    branches; no statement or array name is part of it.  One
    {!violations} call tests each distinct problem once and reuses the
    verdict for every access pair that poses it again: a reduction's RAW,
    WAR and WAW pairs over one access function, and statement pairs of
    one shape transformed alike. *)

type violation = {
  src_stmt : string;
  dst_stmt : string;
  array : string;
  kind : [ `Raw | `War | `Waw ];
}

(** [violations ~original ~transformed] lists the dependences whose
    direction some instance pair reverses; [[]] means the transformation
    is legal.  The two programs must contain the same statements (by
    name), and [original] is normally the structural program
    ({!Prog.of_func_unscheduled} plus the specification's fusion
    directives). *)
val violations : original:Prog.t -> transformed:Prog.t -> violation list

val pp_violation : Format.formatter -> violation -> unit
