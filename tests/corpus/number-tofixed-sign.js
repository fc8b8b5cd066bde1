// Number.prototype.toFixed prints a zero without a sign, a negative that rounds to
// zero with one, and |x| >= 1e21 as Number::toString: (-0.5).toFixed(0) is "-1",
// (-0).toFixed(2) "0.00", (1e21).toFixed(0) "1e+21".  `node` prints the same.
print((-0.5).toFixed(0), (-0).toFixed(2), (1e21).toFixed(0), (-1e21).toFixed(2), (-0.0001).toFixed(2));
print((3.14159).toFixed(), (3.14159).toFixed(NaN), (3.14159).toFixed(2.7), (123.456).toFixed(10), (1e20).toFixed(2));
function neg(x) { return (-x).toFixed(1); }
var out = "";
for (var i = 0; i < 30; i = i + 1) { out = out + neg(i * 0.05) + " "; }
print(out);
