// Number to string (ECMAScript Number::toString): "" + a negative double past 2**53 prints -4611686014132420600.
// Shrunk from generate_program(2, 17); `node` prints the same.
function f0(a, b) { var s = (-1); for (var i = 0; i < 5; i = i + 1) { s = ((-b) - (a * a)); } return "" + s; }
print(f0(2147483647, 16));
