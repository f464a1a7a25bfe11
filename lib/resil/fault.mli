(** Deterministic, seeded fault injection.

    A fault configuration is a comma-separated list of rules, each
    [kind(:key=value)*]:

    {v
      launch:p=0.05:seed=7      5% of armed launches fail (splitmix64 stream 7)
      nan:after=3               poison the 4th and every later guarded output
      crash:every=61:times=2    kill a pool domain on two arrivals, stride 61
      alloc:p=1:times=1         the next device allocation fails once
      trunc:after=0             truncate every checkpoint write (self-healed)
    v}

    Kinds: [launch] (kernel-launch failure), [nan] / [inf] (poison one
    element of a guarded output vector), [alloc] (device allocation
    failure), [crash] (pool domain dies at job entry), [trunc]
    (checkpoint write truncated mid-payload).

    Keys: [p=FLOAT] fire probability per arrival (deterministic splitmix64
    stream), [seed=INT] stream seed / stride phase, [after=INT] skip the
    first N arrivals then always fire, [every=INT] fire when
    [(arrival + seed) mod every = 0], [times=INT] cap on total fires,
    [point=SUBSTR] restrict to fault points whose name contains SUBSTR.

    Rules for [launch], [nan]/[inf] and [crash] only fire inside an
    {e armed} recovery scope ({!with_arm}) — the executor's guarded
    dispatch and the plan interpreter install one — so code paths with
    no recovery story (direct [Host_fused] / [Blas] calls in tests)
    never see an injected exception. [alloc] and [trunc] target points
    that recover in place, so they fire unconditionally.

    The engine is configured once per process from [KF_FAULTS] (or
    {!parse}); with no configuration every check is a single flag
    load. *)

type kind = Launch | Nan | Inf | Alloc | Crash | Trunc

exception Injected of { point : string; kind : kind }
(** Raised at an armed fault point when a rule fires. Recovery layers
    catch it; anything escaping to the user is a resilience bug. *)

val kind_name : kind -> string

type rule

val spec_var : rule list Kf_obs.Env.t
(** [KF_FAULTS], decoded by the same grammar as {!parse}. *)

val parse : string -> (unit, string) result
(** [parse spec] validates and installs [spec] as the process fault
    configuration (replacing any previous one). [Error msg] leaves the
    previous configuration in place. The empty string clears it. *)

val reload : unit -> unit
(** Install [KF_FAULTS]'s rules now (none when unset), as the first
    fault point does; raises {!Kf_obs.Env.Malformed}, changing nothing,
    on a spec that does not parse. *)

val clear : unit -> unit
(** Drop all rules (fault injection becomes inactive). *)

val active : unit -> bool
(** At least one rule is installed (the first call {!reload}s). *)

val with_config : string -> (unit -> 'a) -> 'a
(** [with_config spec f] runs [f] under [spec], then restores the
    previous configuration (rule counters reset) — the test harness
    idiom.  Raises [Invalid_argument] on a malformed [spec]. *)

val with_arm : (unit -> 'a) -> 'a
(** Mark the dynamic extent of [f] as a recovery scope: [launch], [nan],
    [inf] and [crash] rules may fire inside it. Nests.  The scope
    belongs to the calling domain: other domains stay unarmed. *)

val armed : unit -> bool

val check : kind -> point:string -> unit
(** Raise {!Injected} if an armed rule of [kind] fires at [point].
    No-op when inactive, unarmed, or no rule matches. *)

val fire : kind -> point:string -> bool
(** Like {!check} but returns the decision instead of raising — for
    self-recovering points ([alloc], [trunc]) that fire unarmed. *)

val poison : point:string -> float array -> unit
(** Apply an armed [nan] / [inf] rule to one element of [v] (index
    chosen deterministically from the rule's fire count). *)

val injected_total : unit -> int
(** Process-wide count of fires (also exported as the
    [resil.faults_injected] counter). *)
