// Fixture: a second Options struct whose `seed` shares its name with
// WidgetOptions::seed, for option-setter's receiver types.
#ifndef FIXTURE_GADGET_H_
#define FIXTURE_GADGET_H_

struct GadgetOptions {
  int seed = 1;   // Set through WidgetOptions::gadget.
  int level = 0;  // Set through a reference parameter.
  int width = 0;  // Set through a receiver of unknown type.
};

#endif  // FIXTURE_GADGET_H_
