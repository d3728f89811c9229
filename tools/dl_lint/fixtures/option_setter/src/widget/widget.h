// Fixture: Options fields with and without a caller, for option-setter.
#ifndef FIXTURE_WIDGET_H_
#define FIXTURE_WIDGET_H_

#include <string>

#include "gadget/gadget.h"

struct WidgetOptions {
  std::string host = "127.0.0.1";  // dl-lint: ignore(option-setter)
  int size = 4;
  int spare_knob = 1'000;  // BAD: assigned only inside src/widget/.
  int depth = 2;
  int seed = 7;  // BAD: only GadgetOptions::seed is assigned.
  GadgetOptions gadget;

  int Total() const { return size * depth; }
};

#endif  // FIXTURE_WIDGET_H_
