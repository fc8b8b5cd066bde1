// Number to string (ECMAScript Number::toString): an int32 product past 2**53 (4611686016279904256) prints its shortest
// round-trip digits padded with zeros: 4611686016279904000.
// Shrunk from generate_program(0, 76); `node` prints the same.
function f1(a, b) { var s = (-1); for (var i = 0; i < 11; i = i + 1) { s = (0.5 < a ? ((-2147483648) * (-2147483647)) : (~a)); } return s; }
var t1 = 0; for (var r1 = 0; r1 < 5; r1 = r1 + 1) { t1 = f1(255, r1); } print(t1);
