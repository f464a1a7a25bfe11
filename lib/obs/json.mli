(** A minimal JSON emitter — the single serialisation path shared by the
    Chrome trace exporter, [Host_stats.to_json], the bench metadata and
    the CLI's [--json] outputs, so every machine-readable artefact the
    system produces is escaped and formatted identically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** emitted as [null] when not finite *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** JSON string-literal escaping (quotes, backslash, control chars). *)

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

val to_channel : out_channel -> t -> unit
(** Writes the value followed by a newline. *)

exception Parse_error of string

val parse : string -> t
(** Read a JSON document (the full standard grammar minus exotic
    [\uXXXX] codepoints above Latin-1).  Raises {!Parse_error} on
    malformed input.  Numbers without [.]/[e] parse as {!Int}, others as
    {!Float}.  Lets consumers reload artefacts written by this module —
    e.g. the repository benchmark's harness reading its own summaries. *)

val member : string -> t -> t option
(** [member k (Obj fields)] looks up [k]; [None] on non-objects. *)
