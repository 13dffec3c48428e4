// Mutation: a histogram-join selectivity (the selectivity-only kernel)
// is weighted per piece pair and escapes a `double` return without ever
// passing SanitizeSelectivity. Must trip sanitize-flow only.

namespace condsel {

double WeightedJoin(const Histogram& a, const Histogram& b, double w) {
  double sel = 0.0;
  sel += w * JoinSelectivity(a, b);
  return sel;
}

}  // namespace condsel
