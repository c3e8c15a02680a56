// Kept for perfbench/simcheck.cpp; new code includes common/json.hpp.
#pragma once
#include "common/json.hpp"
namespace sm::simcheck { using common::Json; }
