// v6lint fixture for the *positive* suppression path: this directory
// is deliberately scanned by lint_tree (it does not match the
// testdata* skip), and stays clean only because the inline allow below
// suppresses the seeded no-sleep hit (the src/ path component puts the
// file in the library's rule scope). The lint_suppression_ok ctest
// scans it alone and expects exit 0 — proving suppressions actually
// suppress, and (with lint_tree) that a used allow is not flagged as
// stale. Never compiled.

namespace v6::fixture {

void wall_clock_wait_kept_for_this_test() {
  std::this_thread::sleep_for(kPause);  // v6lint: allow(no-sleep)
}

}  // namespace v6::fixture
