// Number to string (ECMAScript Number::toString): (-2**31) * (-2**31) is 2**62: node prints 4611686018427388000,
// the shortest round-trip digits padded with zeros, not all 19 digits.
// Shrunk from generate_program(1, 39); `node` prints the same.
function f0(a, b) { var s = 0; for (var i = 0; i < 5; i = i + 1) { s = ((a * a) + i); } return s; }
print(f0((-2147483648), 0));
