(** Functional-unit pools for resource dependencies (paper Figure 4).

    When limits are finite, an operation that is data-ready at level [l]
    issues at the first level [l' >= l] at which both the total pool and
    its class pool have a free unit, and every unit it acquires is held
    for that level only (fully pipelined units). The paper's two-generic-
    FU example in Figure 4 corresponds to [{ total = Some 2; ... }].

    Each pool is a dense per-level array whose base follows the caller's
    placement floor ([highest_level - 1]): levels below the floor can
    never be asked for again, so they are dropped as the array grows,
    and memory is bounded by the span between the floor and the deepest
    level acquired — the gap between firewalls — not by trace length. *)

type t

val create : Config.fu_limits -> t
(** @raise Invalid_argument if any finite limit is below 1 (a pool with
    no units could never place an operation). *)

val unlimited : t -> bool

val place : t -> floor:int -> tag:int -> int -> int
(** [place t ~floor ~tag ready_level] finds the issue level for an
    operation of class tag [tag] ({!Ddg_isa.Opclass.to_tag}) that is
    ready at [ready_level], acquires the units, and returns the level.
    With unlimited pools this is the identity on [ready_level].

    Contract: [floor] never decreases from one call to the next and
    [ready_level >= floor]. Levels below the floor are forgotten, so the
    result is exact only under this contract; the analyzers keep it
    because [highest_level] never decreases, readiness starts at
    [highest_level - 1], latencies are non-negative and storage
    constraints only raise a level.
    @raise Invalid_argument if [ready_level] is below [floor] or below a
    floor passed earlier. *)
