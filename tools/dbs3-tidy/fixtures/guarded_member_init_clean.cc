// Fixture: the conforming twin of guarded_member_init_violation.cc — every
// scalar GUARDED_BY member is initialized in-class, in an in-class
// constructor init list, or in an out-of-line constructor definition.
// Zero findings expected.

#include "dbs3_stubs.h"

namespace dbs3 {

// The preferred spelling: initialize at the declaration.
class InClassInitializers {
 private:
  Mutex mu_;
  size_t pending_ GUARDED_BY(mu_) = 0;
  bool draining_ GUARDED_BY(mu_) = false;
  Tuple* head_ GUARDED_BY(mu_) = nullptr;
};

// The first member after an access specifier, initialized.
class GuardedMemberFirstInSection {
 private:
  size_t pending_ GUARDED_BY(mu_) = 0;
  Mutex mu_;
};

// An in-class constructor init list covers the member.
class InClassConstructor {
 public:
  explicit InClassConstructor(size_t slots) : free_slots_(slots) {}

 private:
  Mutex mu_;
  size_t free_slots_ GUARDED_BY(mu_);
};

// An out-of-line constructor counts too — the check resolves init lists
// across the whole corpus, mirroring the QueryRuntime::free_slots_ shape
// in the real tree.
class OutOfLineConstructor {
 public:
  explicit OutOfLineConstructor(int64_t budget);

 private:
  Mutex mu_;
  int64_t budget_ GUARDED_BY(mu_);
};

OutOfLineConstructor::OutOfLineConstructor(int64_t budget)
    : budget_(budget) {}

// Braced last initializers: the init list still covers every member, in
// class and out of line.
class BracedInClassConstructor {
 public:
  explicit BracedInClassConstructor(int v) : b_(v), a_{0} {}

 private:
  Mutex mu_;
  int a_ GUARDED_BY(mu_);
  int b_ GUARDED_BY(mu_);
};

class BracedOutOfLineConstructor {
 public:
  BracedOutOfLineConstructor();

 private:
  Mutex mu_;
  int a_ GUARDED_BY(mu_);
  int b_ GUARDED_BY(mu_);
};

BracedOutOfLineConstructor::BracedOutOfLineConstructor() : a_{1}, b_{2} {}

// Non-scalar guarded members are out of scope: class types have default
// constructors.
class NonScalarGuardedMember {
 private:
  Mutex mu_;
  std::vector<Tuple> rows_ GUARDED_BY(mu_);
};

// Scalars behind a name, initialized at the declaration; an alias of a
// class type stays out of scope like the class type itself.
enum class Phase { kIdle, kRunning };
using Micros = int64_t;
typedef uint32_t Epoch;
using Rows = std::vector<Tuple>;

class ScalarsBehindANameInitialized {
 private:
  Mutex mu_;
  std::size_t reserved_ GUARDED_BY(mu_) = 0;
  Phase phase_ GUARDED_BY(mu_) = Phase::kIdle;
  Micros waited_ GUARDED_BY(mu_) = 0;
  Epoch epoch_ GUARDED_BY(mu_) = 0;
  Rows rows_ GUARDED_BY(mu_);
};

}  // namespace dbs3
