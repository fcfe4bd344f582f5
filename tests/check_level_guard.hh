/**
 * @file
 * Shared test helper: set the runtime check level (base/check.hh) for
 * one scope and restore the previous level when the scope ends, also
 * when an assertion returns early or a check throws.
 */

#ifndef ORION_TESTS_CHECK_LEVEL_GUARD_HH
#define ORION_TESTS_CHECK_LEVEL_GUARD_HH

#include "base/check.hh"

namespace orion::test {

/** The check level @p level for one scope (ORION_AUDIT is inert below
 *  Paranoid). */
class CheckLevelGuard
{
  public:
    explicit CheckLevelGuard(core::CheckLevel level)
        : saved_(core::checkLevel())
    {
        core::setCheckLevel(level);
    }
    ~CheckLevelGuard() { core::setCheckLevel(saved_); }

    CheckLevelGuard(const CheckLevelGuard&) = delete;
    CheckLevelGuard& operator=(const CheckLevelGuard&) = delete;

  private:
    core::CheckLevel saved_;
};

} // namespace orion::test

#endif // ORION_TESTS_CHECK_LEVEL_GUARD_HH
