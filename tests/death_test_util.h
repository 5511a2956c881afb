// Death tests observe DL_CHECK aborts, and DL_CHECK compiles to a no-op
// under NDEBUG (core/check.h).  Each death test opens with
// SKIP_IF_DL_CHECK_OFF() so a Release build reports it skipped instead of
// failed; the default Assert build still runs it.
#pragma once

#include <gtest/gtest.h>

#ifdef NDEBUG
#define SKIP_IF_DL_CHECK_OFF() \
  GTEST_SKIP() << "DL_CHECK is compiled out under NDEBUG"
#else
#define SKIP_IF_DL_CHECK_OFF() static_cast<void>(0)
#endif
