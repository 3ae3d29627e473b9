type t = Interner.t

let create = Interner.create
let index = Interner.intern
let id = Interner.extern
