type t = Off | Wal_flush | Wal_record | Scrub | Header

let all = [ Off; Wal_flush; Wal_record; Scrub; Header ]

let to_string = function
  | Off -> "none"
  | Wal_flush -> "wal-flush"
  | Wal_record -> "wal-record"
  | Scrub -> "scrub"
  | Header -> "header"
