// Fixture: must lint clean — exercises every way a finding is legitimately
// absent: allow() suppressions (same line and preceding comment line) and
// rule tokens inside comments/strings. Never compiled; parsed by
// tools/cfest_lint.py --check-fixtures.
namespace cfest_fixture {

struct BridgeToExternalApi {
  // An audited exception: this bridge hands a raw mutex to an external
  // API that requires one and is allowed to declare it.
  std::mutex bridge_mu;  // cfest-lint: allow(raw-mutex)
  // cfest-lint: allow(raw-mutex)
  std::condition_variable bridge_cv;

  // Mentions in comments and strings never fire: std::mutex,
  // std::lock_guard, int num_rows = 0.
  const char* doc = "std::mutex and std::unique_lock<std::mutex>";

  // Row counts in the right type are fine.
  unsigned long long num_rows = 0;
  void Rows(unsigned long long total_rows);
};

}  // namespace cfest_fixture
