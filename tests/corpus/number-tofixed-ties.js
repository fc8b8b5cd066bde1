// Number.prototype.toFixed rounds the exact binary value, a tie away from zero:
// (0.5).toFixed(0) is "1", (2.5).toFixed(0) "3", (1.25).toFixed(1) "1.3", while
// 1.005 sits just below its tie and prints "1.00".  `node` prints the same.
print((0.5).toFixed(0), (2.5).toFixed(0), (1.25).toFixed(1), (1.005).toFixed(2), (1.45).toFixed(1));
function fixed(x, d) { return x.toFixed(d); }
var out = "";
for (var i = 0; i < 40; i = i + 1) { out = out + fixed(i + 0.5, 0) + "," + fixed(i * 0.125, 2) + " "; }
print(out);
var s = 0; for (var k = 0; k < 150; k = k + 1) { s = s + k * 0.25; } print(s.toFixed(1), (s / 8).toFixed(3));
