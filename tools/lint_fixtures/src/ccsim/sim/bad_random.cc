// Fixture: <random> inside src/ must trigger the random rule, once per line
// marked below; outside src/ (tests/ uses it as a reference) it is allowed.
// Never compiled.

#include <random>  // random

std::mt19937_64 engine;  // random
std::mt19937 narrow_engine;  // random

double Draw(std::seed_seq& seq) {  // random
  engine.seed(seq);
  std::uniform_int_distribution<int> pick(0, 9);  // random
  std::exponential_distribution<double> delay(2.0);  // random
  double u = std::generate_canonical<double, 53>(engine);  // random
  // Mentions of std::mt19937_64 and std::seed_seq in comments are fine.
  // ccsim-analyze: random-ok(fixture exercises the waiver path)
  std::bernoulli_distribution coin(0.5);
  return u + pick(engine) + delay(engine) + coin(engine);
}
