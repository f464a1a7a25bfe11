(** Every [KF_*] environment variable, declared once and read by one
    rule.  A variable is declared next to the code that reads it — name,
    one-line doc, accepted values, default — and registered here, so
    [kf] can check the whole table before any work and a test can hold
    README's table to it.

    - An empty or blank value means unset; values are trimmed.
    - {!get} reads the environment at every call, never at module
      initialisation, so a variable changed mid-process takes effect at
      the next read.  A reader on a hot path may latch its first value,
      and says so.
    - A malformed value raises {!Malformed} from every reader instead of
      falling back; [kf] prints {!message} and exits 2. *)

type error = { name : string; expected : string; got : string }
(** [got] is quoted when the value does not parse, bare when it parses
    but is out of bounds, and followed by the parser's reason for a
    grammar ({!custom}). *)

exception Malformed of error

val message : error -> string
(** [kf: NAME must be EXPECTED, got GOT]. *)

type 'a t

(** {1 Declaring}

    Each constructor takes the name, a one-line [doc] and the [default]
    in words, and registers the variable; a name declared twice raises
    [Invalid_argument]. *)

type 'a declare := string -> doc:string -> default:string -> 'a t

val int : ?min:int -> ?max:int -> int declare
(** Within [[min, max]], each bound optional. *)

val float : ?above:float -> ?min:float -> ?max:float -> float declare
(** Finite, [> above] and within [[min, max]]. *)

val bool : bool declare
(** [on]/[1]/[true]/[yes] or [off]/[0]/[false]/[no], in any case. *)

val enum :
  all:'a list ->
  to_string:('a -> string) ->
  of_string:(string -> 'a option) ->
  'a declare
(** The message lists every [to_string] spelling of [all]. *)

val path : string declare

val custom : accepted:string -> (string -> ('a, string) result) -> 'a declare
(** A grammar of its own; the parser's [Error reason] joins the message. *)

(** {1 Reading} *)

val name : 'a t -> string

val get : 'a t -> 'a option
(** [None] when unset; raises {!Malformed} on a value the declaration
    does not accept. *)

val parse : 'a t -> string -> ('a option, error) result
(** The decoder {!get} applies to a raw value. *)

(** {1 The table} *)

type info = {
  name : string;
  doc : string;
  accepted : string;
  default : string;
  check : string -> (unit, error) result;  (** the decoder; never raises *)
}

val declared : unit -> info list
(** The variables of the modules linked into this program, by name. *)

val check_all : unit -> (unit, error) result
(** The first declared variable, by name, whose value is malformed. *)
