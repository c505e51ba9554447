type t = { registry : Registry.t; spans : Span.t }

let create () = { registry = Registry.create (); spans = Span.create () }
let registry t = t.registry
let spans t = t.spans
let snapshot t = Snapshot.v ~registry:t.registry ~spans:t.spans
